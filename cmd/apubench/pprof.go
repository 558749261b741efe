package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, so the traced run can attribute CPU samples to layers in-process
// while go.mod stays dependency-free. Only what the attribution needs is
// decoded: each sample's call stack as function names (leaf first) and its
// CPU nanoseconds.

// stackSample is one decoded CPU-profile sample.
type stackSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	cpuNS int64
}

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// by the caller never asking for them; profile.proto has none we read.
func (p *pbuf) next() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends one occurrence of a repeated integer field, which
// the encoder may write packed (data) or one value at a time (val).
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into stack samples. The CPU
// value is the sample type whose unit is "nanoseconds" (runtime/pprof
// writes samples/count and cpu/nanoseconds).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		unitIdx   []uint64                // sample_type[i].unit, as string-table indices
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
		strs      []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch num {
		case 1: // sample_type
			var unit uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				if n == 2 {
					unit = v
				}
			}
			unitIdx = append(unitIdx, unit)
		case 2: // sample
			var s rawSample
			for len(msg.b) > 0 {
				n, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.vals, err = repeatedVarint(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line; the first entry is the innermost inlined call
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuCol := -1
	for i, u := range unitIdx {
		if str(u) == "nanoseconds" {
			cpuCol = i
		}
	}
	if cpuCol < 0 {
		return nil, errors.New("pprof: profile has no nanoseconds sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpuCol >= len(s.vals) {
			return nil, errors.New("pprof: sample has fewer values than sample types")
		}
		ss := stackSample{cpuNS: int64(s.vals[cpuCol])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.stack = append(ss.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Layers are this repository's modules plus the Go runtime and standard
// library split by what they do for a request.
var repoLayers = []string{
	"hash", "rel", "alloc", "mem", "device", "cost", "htab", "radix", "sched", "core",
	"plan", "catalog", "shard", "service", "api", "httpapi", "cluster", "apujoin", "bench",
}

var goLayers = []string{"go.gc", "go.malloc", "go.maps", "go.sched", "go.json", "go.net", "go.other"}

// kernelClasses are the fine-grained step classes of the two kernel layers.
var kernelClasses = []string{
	"htab.b1", "htab.b2", "htab.b3", "htab.b4", "htab.p1", "htab.p2", "htab.p3", "htab.p4",
	"radix.n1", "radix.n2", "radix.n3", "radix.gather",
}

// pkgOf returns the import path of a Go symbol name:
// "apujoin/internal/cost.(*Model).stepTime" → "apujoin/internal/cost".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments carry their own dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/abi" ||
		pkg == "internal/cpu" || pkg == "internal/bytealg" || pkg == "internal/chacha8rand"
}

// Runtime work is classified by the frames that caused it, not by the leaf:
// a memclr under mallocgc is allocation, a futex under schedule is
// scheduling.
var (
	gcRoots = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcDrain",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.wbBufFlush",
		"runtime.gcWriteBarrier", "runtime.(*gcWork)",
	}
	mallocRoots = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makechan", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.slicebytetostring", "runtime.stringtoslicebyte", "runtime.concatstring", "runtime.convT",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.persistentalloc",
	}
	mapRoots = []string{
		"runtime.map", "runtime.makemap", "internal/runtime/maps.", "runtime.aeshash", "runtime.memhash",
		"runtime.strhash", "runtime.evacuate", "runtime.hashGrow",
	}
	schedRoots = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mstart", "runtime.mcall",
		"runtime.goexit0", "runtime.gosched", "runtime.goschedImpl", "runtime.newproc", "runtime.execute",
		"runtime.semacquire", "runtime.semrelease", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.closechan", "runtime.lock", "runtime.unlock", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.notetsleep", "runtime.sysmon", "runtime.usleep", "runtime.osyield",
		"runtime.netpoll", "runtime.morestack", "runtime.newstack", "runtime.copystack", "runtime.runq",
		"runtime.stealWork", "runtime.resetspinning", "runtime.exitsyscall", "runtime.entersyscall",
		"runtime.reentersyscall", "runtime.casgstatus", "runtime.handoffp", "runtime.retake",
		"runtime.preempt", "runtime.asyncPreempt", "runtime.sigtramp", "runtime.sighandler", "runtime.sigprof",
		"runtime.(*timers)", "runtime.(*timer)", "runtime.checkTimers", "runtime.pidle", "runtime.mPark",
		"runtime.acquirem", "runtime.releasem", "runtime.goyield", "runtime.runSafePointFn",
		"runtime.systemstack_switch", "runtime.(*wakeableSleep)", "runtime.(*rwmutex)",
		"runtime.acquirep", "runtime.releasep", "runtime.mget", "runtime.mput", "runtime.newm", "runtime.goexit1",
	}
)

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// pkgLayers maps an import path to its layer; a path absent here has no
// layer of its own and its samples go to the nearest caller that has one.
var pkgLayers = func() map[string]string {
	m := map[string]string{
		"apujoin":                      "apujoin",
		"apujoin/internal/service/api": "api",
		"main":                         "bench",
		"apujoin/cmd/apubench":         "bench",
		"apujoin/internal/oracle":      "bench",
		"runtime/pprof":                "bench",
		"compress/flate":               "bench",
		"compress/gzip":                "bench",
		"encoding/json":                "go.json",
	}
	for _, l := range repoLayers {
		switch l {
		case "api", "apujoin", "bench": // mapped above: not internal/<layer> packages
		default:
			m["apujoin/internal/"+l] = l
		}
	}
	for _, p := range []string{
		"net", "net/http", "net/http/internal", "net/http/internal/ascii", "net/http/httptrace",
		"net/textproto", "net/url", "net/netip", "internal/poll", "syscall", "internal/syscall/unix",
		"bufio", "mime", "vendor/golang.org/x/net/http/httpguts", "vendor/golang.org/x/net/http/httpproxy",
		"internal/singleflight", "internal/godebug",
	} {
		m[p] = "go.net"
	}
	return m
}()

// kernelRE matches the step-class letter and number in a kernel's method
// name, so B3, B3Shard or a later renamed variant all land in b3.
var kernelRE = regexp.MustCompile(`\.([BPN])([1-4])`)

// classify attributes one sample to a layer and, for htab and radix, to a
// kernel step class ("" otherwise).
func classify(stack []string) (layer, class string) {
	if len(stack) == 0 {
		return "go.other", ""
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcRoots) {
			return "go.gc", ""
		}
	}
	// The run of runtime frames at the leaf end is work the runtime did on
	// behalf of the first non-runtime caller.
	rt := 0
	for rt < len(stack) && isRuntimePkg(pkgOf(stack[rt])) {
		rt++
	}
	for _, roots := range []struct {
		layer    string
		prefixes []string
	}{{"go.malloc", mallocRoots}, {"go.maps", mapRoots}, {"go.sched", schedRoots}} {
		for _, fn := range stack[:rt] {
			if hasAnyPrefix(fn, roots.prefixes) {
				return roots.layer, ""
			}
		}
	}
	// Anything else the runtime did at the leaf (memmove, memclr, duff
	// copies, equality and interface helpers) is the caller's own work.
	for i := rt; i < len(stack); i++ {
		l, ok := pkgLayers[pkgOf(stack[i])]
		if !ok {
			continue
		}
		if l == "htab" || l == "radix" {
			// The kernel method may sit a few inlined helpers above the leaf.
			for j := i; j < len(stack) && class == "" && pkgLayers[pkgOf(stack[j])] == l; j++ {
				class = kernelClass(l, stack[j])
			}
		}
		return l, class
	}
	return "go.other", ""
}

// kernelClass names the step class of one htab or radix function, or "".
func kernelClass(layer, fn string) string {
	if m := kernelRE.FindStringSubmatch(fn[len(pkgOf(fn)):]); m != nil {
		if c := layer + "." + strings.ToLower(m[1]) + m[2]; slices.Contains(kernelClasses, c) {
			return c
		}
	}
	if layer == "radix" && strings.Contains(fn, ".Gather") {
		return "radix.gather"
	}
	return ""
}

// attribute sums sampled CPU nanoseconds per layer and per kernel class.
func attribute(samples []stackSample) (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for _, s := range samples {
		layer, class := classify(s.stack)
		byLayer[layer] += s.cpuNS
		if class != "" {
			byLayer[class] += s.cpuNS
		}
		total += s.cpuNS
	}
	return byLayer, total
}
