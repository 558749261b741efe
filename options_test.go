package apujoin

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// clockVariant is one configuration of a clock-contract row: the engine's
// options, join options applied after the fixture's, and whether the join
// reads its sides from the catalog (Ref) instead of inline.
type clockVariant struct {
	eng  []EngineOption
	join []JoinOption
	ref  bool
}

func joinWith(opts ...JoinOption) clockVariant     { return clockVariant{join: opts} }
func engineWith(opts ...EngineOption) clockVariant { return clockVariant{eng: opts} }

// clockRow places one option constructor in the clock contract. A host row
// may change host wall-clock only: the full Result is bit-identical across
// its variants on every fixture. A model row is read by the simulated
// clock: at least one variant moves TotalNS on the row's fixture, so the
// row is not vacuous.
type clockRow struct {
	name     string
	host     bool
	on       Options // a model row's fixture
	variants []clockVariant
}

// The two explicit fixtures of the contract: both rows and the options
// under test are applied on top, through WithOptions.
var (
	clockPHJPL = Options{Algo: PHJ, Scheme: PL, Delta: 0.25, PilotItems: 1 << 10}
	clockSHJDD = Options{Algo: SHJ, Scheme: DD, Delta: 0.25, PilotItems: 1 << 10}
)

func clockRows() []clockRow {
	// The refined ratio search and the paper's exhaustive one part ways only
	// on a fine grid.
	fine := Options{Algo: PHJ, Scheme: PL, Delta: 0.02, PilotItems: 1 << 8}
	fullGrid := fine
	fullGrid.FullGrid = true
	return []clockRow{
		{name: "WithWorkers", host: true, variants: []clockVariant{
			joinWith(WithWorkers(1)), joinWith(WithWorkers(2)), joinWith(WithWorkers(4)),
		}},
		{name: "Workers", host: true, variants: []clockVariant{
			engineWith(Workers(1)), engineWith(Workers(2)), engineWith(Workers(4)),
		}},
		{name: "Inline vs Ref", host: true, variants: []clockVariant{{}, {ref: true}}},
		// The documented shard-count invariance; an unsharded engine runs a
		// grid of one partition, a different decomposition, and is not here.
		{name: "WithShards", host: true, variants: []clockVariant{
			{eng: []EngineOption{WithShards(1)}, ref: true},
			{eng: []EngineOption{WithShards(2)}, ref: true},
			{eng: []EngineOption{WithShards(8)}, ref: true},
		}},
		{name: "CatalogCapacity", host: true, variants: []clockVariant{
			{ref: true},
			{eng: []EngineOption{CatalogCapacity(1 << 20)}, ref: true},
		}},
		{name: "PlanCacheSize", host: true, variants: []clockVariant{
			joinWith(WithAuto()),
			{eng: []EngineOption{PlanCacheSize(1)}, join: []JoinOption{WithAuto()}},
		}},

		{name: "WithAlgo", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithAlgo(SHJ))}},
		{name: "WithScheme", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithScheme(DD))}},
		{name: "WithArch", on: clockSHJDD, variants: []clockVariant{{}, joinWith(WithArch(Discrete))}},
		{name: "WithAuto", on: clockSHJDD, variants: []clockVariant{{}, joinWith(WithAuto())}},
		{name: "WithDelta", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithDelta(0.1))}},
		{name: "WithPilotItems", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithPilotItems(1 << 12))}},
		{name: "WithCountOnly", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithCountOnly())}},
		{name: "WithGrouping", on: clockPHJPL, variants: []clockVariant{{}, joinWith(WithGrouping(0))}},
		{name: "WithSeparateTables", on: clockSHJDD, variants: []clockVariant{{}, joinWith(WithSeparateTables())}},
		{name: "WithOptions", on: fine, variants: []clockVariant{{}, joinWith(WithOptions(fullGrid))}},
	}
}

// optionConstructors lists the exported functions of options.go and
// engine.go that return a JoinOption or an EngineOption.
func optionConstructors(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, file := range []string{"options.go", "engine.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fd.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "JoinOption" || id.Name == "EngineOption") {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}

// TestOptionClockContract: every option constructor states whether the
// simulated clock may read it, and the statement holds.
func TestOptionClockContract(t *testing.T) {
	rows := clockRows()
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.name] = true
	}
	ctors := optionConstructors(t)
	if len(ctors) == 0 {
		t.Fatal("found no option constructors in options.go and engine.go")
	}
	for _, name := range ctors {
		if !covered[name] {
			t.Errorf("option constructor %s has no row in the clock contract", name)
		}
	}

	r := Gen{N: 1 << 13, Dist: LowSkew, Seed: 1}.Build()
	s := Gen{N: 1 << 13, Dist: LowSkew, Seed: 2}.Probe(r, 1.0)
	run := func(t *testing.T, fixture Options, v clockVariant) *Result {
		t.Helper()
		eng := NewEngine(v.eng...)
		defer eng.Close()
		rs, ss := Inline(r), Inline(s)
		if v.ref {
			if _, err := eng.Load("r", r); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load("s", s); err != nil {
				t.Fatal(err)
			}
			rs, ss = Ref("r"), Ref("s")
		}
		res, err := eng.Join(context.Background(), rs, ss, append([]JoinOption{WithOptions(fixture)}, v.join...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.host {
				for _, fixture := range []Options{clockPHJPL, clockSHJDD} {
					ref := run(t, fixture, row.variants[0])
					for i, v := range row.variants[1:] {
						if got := run(t, fixture, v); !reflect.DeepEqual(got, ref) {
							t.Errorf("%s-%s: variant %d changes the Result (TotalNS %v, variant 0 %v)",
								fixture.Algo, fixture.Scheme, i+1, got.TotalNS, ref.TotalNS)
						}
					}
				}
				return
			}
			base := run(t, row.on, row.variants[0]).TotalNS
			for _, v := range row.variants[1:] {
				if run(t, row.on, v).TotalNS != base {
					return
				}
			}
			t.Errorf("%s-%s: no variant moves TotalNS off %v", row.on.Algo, row.on.Scheme, base)
		})
	}
}
