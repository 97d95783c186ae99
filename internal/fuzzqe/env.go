// Package fuzzqe is a ground-truth plan-equivalence fuzzer for the WSQ
// query engine, after the TQS recipe: a seeded generator random-walks a
// schema graph over websim's deterministic corpus to emit multi-join WSQ
// queries, an offline evaluator computes the exact result from the raw
// data (websim is seeded, so web-call results are computable without the
// engine), and a differential harness executes each query under every
// plan regime — sync nested-loop, async percolated/consolidated, and
// hash-join/batch at several batch sizes — asserting that all of them
// reproduce the ground truth and that ReqSync settlement counts match
// what the plan predicts.
//
// A coverage tracker buckets queries by rewrite-shape signature and
// biases generation toward unvisited plan shapes (KQE-lite), and a
// shrinker minimizes any diverging query before it is checked into the
// regression corpus under testdata/.
package fuzzqe

import (
	"fmt"
	"os"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/datasets"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/types"
	"repro/internal/vtab"
	"repro/internal/websim"
)

// NumFactRows is the size of the conceptual wide table the stored schema
// normalizes. Small enough that a full differential run is cheap, large
// enough that joins produce interesting multiplicities.
const NumFactRows = 160

// WideRow is one row of the conceptual wide table behind the normalized
// schema. The ground-truth evaluator works directly over these rows, so
// join results are exact by construction: every dimension key is unique
// in its dimension table, which makes each dimension join a 0-or-1
// extension and keeps multiset multiplicities computable without bitmap
// approximation.
type WideRow struct {
	ID int64
	Sk types.Value // state key; NULL-bearing
	Tk types.Value // term key; never NULL
	Mk types.Value // movie key; NULL-bearing
	V  int64
}

// Env is a self-contained fuzzing environment: a catalog holding the
// normalized tables, the websim corpus with both simulated engines, a
// planner, and the request pumps the async variants share. It also keeps
// the wide rows and dimension maps the ground-truth evaluator reads.
type Env struct {
	Cat     *catalog.Catalog
	Engines *search.Registry
	VTabs   *vtab.Registry
	Planner *plan.Planner
	Pump    *async.Pump
	// WarmPump is the warm variant's pump. Its result cache holds fewer
	// keys than the data set's web joins can ask for, so it also evicts.
	WarmPump *async.Pump

	Wide []WideRow
	// Dimension attribute maps, keyed by the (unique) dimension key.
	StateDim map[string]struct {
		Cap string
		Pop int64
	}
	TermDim  map[string]int64 // Grp
	MovieDim map[string]int64 // Len

	// FactSks / FactTks / FactMks are the key pools facts draw from;
	// FactSks and FactMks include keys dangling from their dimension.
	FactSks []string
	FactTks []string
	FactMks []string

	dir    string
	rmOnCl bool
	// webMemo caches ground-truth virtual-table calls by the same key the
	// engine's result cache would use; websim is deterministic, so one
	// call per distinct argument vector defines the truth.
	webMemo map[string][]types.Tuple
}

// NewEnv builds an environment in dir (a throwaway directory; created if
// missing). The data layout is fully determined by seed.
func NewEnv(dir string, seed int64) (*Env, error) {
	cat, err := catalog.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	corpus := websim.Default()
	engines := search.NewRegistry()
	engines.Register(websim.NewAltaVista(corpus), "AV")
	engines.Register(websim.NewGoogle(corpus), "G")
	vt := vtab.NewRegistry(engines)
	e := &Env{
		Cat:      cat,
		Engines:  engines,
		VTabs:    vt,
		Planner:  plan.New(cat, vt),
		Pump:     async.NewPump(0, 0, nil),
		WarmPump: async.NewPump(0, 0, cache.New(48)),
		dir:      dir,
	}
	if err := e.buildData(seed); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// NewTempEnv is NewEnv over a fresh temporary directory, removed on Close.
func NewTempEnv(seed int64) (*Env, error) {
	dir, err := os.MkdirTemp("", "fuzzqe-*")
	if err != nil {
		return nil, err
	}
	e, err := NewEnv(dir, seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.rmOnCl = true
	return e, nil
}

// Close releases the pump and catalog (and the temp directory when the
// environment owns it).
func (e *Env) Close() error {
	e.Pump.Close()
	e.WarmPump.Close()
	err := e.Cat.Close()
	if e.rmOnCl {
		os.RemoveAll(e.dir)
	}
	return err
}

// buildData materializes the wide table and its normalization:
//
//	Fact(Id, Sk, Tk, Mk, V)       — one row per wide row; Sk, Mk NULL-bearing
//	DimState(Sk, Cap, Pop)        — unique keys; attrs from datasets.States
//	DimTerm(Tk, Grp)              — unique keys
//	DimMovie(Mk, Len)             — unique keys
//
// Fact keys include values dangling from their dimension, and each
// dimension holds keys no fact references, so inner joins genuinely
// filter in both directions. Term keys come from the Table-1 template
// constants and state keys from the state table, so web joins over them
// hit entities the websim corpus actually correlates.
func (e *Env) buildData(seed int64) error {
	rng := search.NewRand(seed)

	// Key pools. The first pool entries are backed by the dimension; the
	// trailing ones dangle (facts reference them, the dimension lacks them).
	dimStates := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		dimStates = append(dimStates, datasets.States[i*4].Name)
	}
	e.FactSks = append(append([]string{}, dimStates[:10]...), datasets.States[1].Name, datasets.States[3].Name)
	dimTerms := datasets.TemplateConstants[:12]
	e.FactTks = append(append([]string{}, dimTerms[:10]...), datasets.TemplateConstants[12], datasets.TemplateConstants[13])
	dimMovies := datasets.Movies[:10]
	e.FactMks = append(append([]string{}, dimMovies[:8]...), datasets.Movies[10], datasets.Movies[11])

	e.StateDim = make(map[string]struct {
		Cap string
		Pop int64
	})
	for _, name := range dimStates {
		st, ok := datasets.StateByName(name)
		if !ok {
			return fmt.Errorf("fuzzqe: unknown state %q", name)
		}
		e.StateDim[name] = struct {
			Cap string
			Pop int64
		}{Cap: st.Capital, Pop: st.Population}
	}
	e.TermDim = make(map[string]int64)
	for i, t := range dimTerms {
		e.TermDim[t] = int64(i % 3)
	}
	e.MovieDim = make(map[string]int64)
	for i, m := range dimMovies {
		e.MovieDim[m] = int64(80 + 7*i)
	}

	// Wide rows: ~20% NULL state keys, ~30% NULL movie keys.
	e.Wide = make([]WideRow, NumFactRows)
	for i := range e.Wide {
		w := WideRow{ID: int64(i), V: int64(rng.Intn(10))}
		if rng.Float64() < 0.2 {
			w.Sk = types.Null()
		} else {
			w.Sk = types.Str(e.FactSks[rng.Intn(len(e.FactSks))])
		}
		w.Tk = types.Str(e.FactTks[rng.Intn(len(e.FactTks))])
		if rng.Float64() < 0.3 {
			w.Mk = types.Null()
		} else {
			w.Mk = types.Str(e.FactMks[rng.Intn(len(e.FactMks))])
		}
		e.Wide[i] = w
	}

	// Store the normalization.
	if err := e.createAndFill("Fact", []catalog.ColumnDef{
		{Name: "Id", Type: schema.TInt},
		{Name: "Sk", Type: schema.TString},
		{Name: "Tk", Type: schema.TString},
		{Name: "Mk", Type: schema.TString},
		{Name: "V", Type: schema.TInt},
	}, func(emit func(types.Tuple) error) error {
		for _, w := range e.Wide {
			if err := emit(types.Tuple{types.Int(w.ID), w.Sk, w.Tk, w.Mk, types.Int(w.V)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.createAndFill("DimState", []catalog.ColumnDef{
		{Name: "Sk", Type: schema.TString},
		{Name: "Cap", Type: schema.TString},
		{Name: "Pop", Type: schema.TInt},
	}, func(emit func(types.Tuple) error) error {
		for _, name := range dimStates {
			d := e.StateDim[name]
			if err := emit(types.Tuple{types.Str(name), types.Str(d.Cap), types.Int(d.Pop)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.createAndFill("DimTerm", []catalog.ColumnDef{
		{Name: "Tk", Type: schema.TString},
		{Name: "Grp", Type: schema.TInt},
	}, func(emit func(types.Tuple) error) error {
		for _, t := range dimTerms {
			if err := emit(types.Tuple{types.Str(t), types.Int(e.TermDim[t])}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return e.createAndFill("DimMovie", []catalog.ColumnDef{
		{Name: "Mk", Type: schema.TString},
		{Name: "Len", Type: schema.TInt},
	}, func(emit func(types.Tuple) error) error {
		for _, m := range dimMovies {
			if err := emit(types.Tuple{types.Str(m), types.Int(e.MovieDim[m])}); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *Env) createAndFill(name string, cols []catalog.ColumnDef, fill func(emit func(types.Tuple) error) error) error {
	t, err := e.Cat.Create(name, cols)
	if err != nil {
		return err
	}
	return fill(func(row types.Tuple) error {
		_, err := t.Insert(row)
		return err
	})
}
