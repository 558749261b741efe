package api

import (
	"encoding/json"
	"strconv"
)

// DecodeEnvelope reads a shard server's reply body, {"result": <r>}, into
// r in one pass: the per-partition vector field by field with strconv, the
// small optional sections (phases, plan, pipeline) through encoding/json on
// their own bytes. It accepts a strict subset of JSON and declines
// everything else — an escape or a non-ASCII byte in a key or string, an
// unknown, case-variant or repeated key, null or a non-number where a
// number goes, an integer token encoding/json would refuse for an
// int64/int (1e2, 1.0, out of range), a float outside float64's range,
// trailing data — leaving r zero so the caller can fall back to
// encoding/json. Whenever it accepts, r holds exactly what
// json.Unmarshal would have decoded, floats bit for bit: each is parsed
// from its exact token by strconv.ParseFloat, as encoding/json does.
func (r *JoinResponse) DecodeEnvelope(raw []byte) bool {
	*r = JoinResponse{}
	d := decoder{b: raw}
	ok := d.object(func(key []byte) (int, bool) {
		if string(key) != "result" {
			return 0, false
		}
		return 0, d.response(r)
	}) && d.end()
	if !ok {
		*r = JoinResponse{}
	}
	return ok
}

// decoder is a cursor over one JSON document. Its methods skip leading
// whitespace and report false where the input leaves the subset
// DecodeEnvelope accepts.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) response(r *JoinResponse) bool {
	return d.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "id":
			return 0, d.int64(&r.ID)
		case "state":
			return 1, d.string(&r.State)
		case "matches":
			return 2, d.int64(&r.Matches)
		case "total_ms":
			return 3, d.float(&r.TotalMS)
		case "phases":
			return 4, d.section(&r.Phases)
		case "plan":
			return 5, d.section(&r.Plan)
		case "pipeline":
			return 6, d.section(&r.Pipeline)
		case "wall_ms":
			return 7, d.float(&r.WallMS)
		case "error":
			return 8, d.string(&r.Error)
		case "partitions":
			return 9, d.partitions(&r.Partitions)
		}
		return 0, false
	})
}

func (d *decoder) partitions(ps *[]PartitionResult) bool {
	if !d.consume('[') {
		return false
	}
	*ps = []PartitionResult{}
	if d.consume(']') {
		return true
	}
	for {
		*ps = append(*ps, PartitionResult{})
		if !d.partition(&(*ps)[len(*ps)-1]) {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

func (d *decoder) partition(p *PartitionResult) bool {
	return d.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "algo":
			return 0, d.int(&p.Algo)
		case "scheme":
			return 1, d.int(&p.Scheme)
		case "arch":
			return 2, d.int(&p.Arch)
		case "matches":
			return 3, d.int64(&p.Matches)
		case "partition_ns":
			return 4, d.float(&p.PartitionNS)
		case "build_ns":
			return 5, d.float(&p.BuildNS)
		case "probe_ns":
			return 6, d.float(&p.ProbeNS)
		case "merge_ns":
			return 7, d.float(&p.MergeNS)
		case "transfer_ns":
			return 8, d.float(&p.TransferNS)
		case "total_ns":
			return 9, d.float(&p.TotalNS)
		case "estimated_ns":
			return 10, d.float(&p.EstimatedNS)
		case "lock_overhead_ns":
			return 11, d.float(&p.LockOverheadNS)
		case "est_partition_ns":
			return 12, d.float(&p.EstPartitionNS)
		case "est_build_ns":
			return 13, d.float(&p.EstBuildNS)
		case "est_probe_ns":
			return 14, d.float(&p.EstProbeNS)
		case "cache_accesses":
			return 15, d.int64(&p.CacheAccesses)
		case "cache_misses":
			return 16, d.int64(&p.CacheMisses)
		case "zero_copy_bytes":
			return 17, d.int64(&p.ZeroCopyBytes)
		case "spilled_partitions":
			return 18, d.int64(&p.SpilledPartitions)
		case "spill_bytes":
			return 19, d.int64(&p.SpillBytes)
		case "spill_ns":
			return 20, d.float(&p.SpillNS)
		case "allocs":
			return 21, d.int64(&p.Allocs)
		case "alloc_words":
			return 22, d.int64(&p.AllocWords)
		case "global_atomics":
			return 23, d.int64(&p.GlobalAtomics)
		case "local_ops":
			return 24, d.int64(&p.LocalOps)
		case "wasted_words":
			return 25, d.int64(&p.WastedWords)
		}
		return 0, false
	})
}

// object reads one object. field is called at each key with the cursor on
// its value; it returns the key's index among the object's fields (below
// 64) and whether it read the value. An unknown key, a failed value or a
// repeated index declines.
func (d *decoder) object(field func(key []byte) (int, bool)) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := d.token()
		if !ok || !d.consume(':') {
			return false
		}
		idx, ok := field(key)
		if !ok || seen&(1<<idx) != 0 {
			return false
		}
		seen |= 1 << idx
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// section hands the next value, which must be an object, to encoding/json.
// The bytes are found by bracket matching; encoding/json validates them.
func (d *decoder) section(v any) bool {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return false
	}
	depth := 0
	for i := d.i; i < len(d.b); i++ {
		switch d.b[i] {
		case '"':
			for i++; i < len(d.b) && d.b[i] != '"'; i++ {
				if d.b[i] == '\\' {
					return false
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				raw := d.b[d.i : i+1]
				d.i = i + 1
				return json.Unmarshal(raw, v) == nil
			}
		}
	}
	return false
}

// token reads a string made of printable ASCII without escapes and returns
// its bytes, which are then exactly its value.
func (d *decoder) token() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) string(v *string) bool {
	s, ok := d.token()
	*v = string(s)
	return ok
}

// number reads one token of JSON's number grammar; integral reports one
// without a fraction or an exponent.
func (d *decoder) number() (tok []byte, integral, ok bool) {
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i = j
	}
	tok, d.i = b[d.i:i], i
	return tok, integral, true
}

// digits returns the index after the run of decimal digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) int64(v *int64) bool {
	tok, integral, ok := d.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	*v = n
	return err == nil
}

func (d *decoder) int(v *int) bool {
	tok, integral, ok := d.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

func (d *decoder) float(v *float64) bool {
	tok, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

// consume skips whitespace and reads c if it comes next.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
