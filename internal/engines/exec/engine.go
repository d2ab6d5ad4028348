package exec

import (
	"fmt"
	"sort"
	"sync"

	"nexus/internal/core"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/table"
)

// Engine is the shell every nexus engine is built from. An engine is
// its capability set plus its override kernels: the shell checks a plan
// against the capabilities, runs it on a fresh Runtime (safe for
// concurrent use) over the engine's dataset resolver and override, and
// wraps errors with the engine's kind and name. Engines embed it for
// Name, Capabilities, Execute and ExecuteTraced.
type Engine struct {
	kind, name string
	caps       provider.Capabilities
	datasets   func(name string) (*table.Table, bool)
	override   OverrideFunc
	cache      *ExprCache // compiled-expression cache shared across Executes
}

// NewEngine builds the shell for an engine of the given kind ("relational",
// "storage", …); an empty name defaults to the kind. datasets resolves
// Scan leaves; override (nil for none) is the Runtime's Override hook.
func NewEngine(kind, name string, caps provider.Capabilities,
	datasets func(name string) (*table.Table, bool), override OverrideFunc) Engine {
	if name == "" {
		name = kind
	}
	return Engine{kind: kind, name: name, caps: caps, datasets: datasets, override: override, cache: NewExprCache()}
}

// Name implements provider.Provider.
func (e *Engine) Name() string { return e.name }

// Capabilities implements provider.Provider.
func (e *Engine) Capabilities() provider.Capabilities { return e.caps }

// Execute implements provider.Provider: it evaluates the whole plan
// tree locally, rejecting plans outside the advertised capabilities.
func (e *Engine) Execute(plan core.Node) (*table.Table, error) {
	return e.ExecuteTraced(plan, nil)
}

// ExecuteTraced is Execute with a per-operator trace attached (nil for
// none): tr records calls, output rows and inclusive wall time for every
// node of this plan instance. Subtrees an override kernel absorbed show
// as not executed; the kernel's root carries their time.
func (e *Engine) ExecuteTraced(plan core.Node, tr *Trace) (*table.Table, error) {
	if ok, missing := e.caps.SupportsPlan(plan); !ok {
		return nil, e.wrap(fmt.Errorf("operator %v not supported", missing))
	}
	rt := &Runtime{Datasets: e.datasets, Override: e.override, Cache: e.cache, Trace: tr}
	t, err := rt.Run(plan)
	if err != nil {
		return nil, e.wrap(err)
	}
	return t, nil
}

// wrap prefixes err with the engine's kind and name.
func (e *Engine) wrap(err error) error { return fmt.Errorf("%s %q: %w", e.kind, e.name, err) }

// Tables is the in-memory dataset table the in-memory engines embed
// beside Engine: the provider's Store, Append, Drop and catalog over a
// map guarded by one mutex.
type Tables struct {
	kind string // error prefix

	mu sync.RWMutex
	m  map[string]*table.Table
}

// NewTables returns an empty table; kind prefixes its errors.
func NewTables(kind string) *Tables {
	return &Tables{kind: kind, m: map[string]*table.Table{}}
}

func (d *Tables) check(name string, t *table.Table) error {
	if name == "" {
		return fmt.Errorf("%s: empty dataset name", d.kind)
	}
	if t == nil {
		return fmt.Errorf("%s: nil table for %q", d.kind, name)
	}
	return nil
}

// Store implements provider.Provider.
func (d *Tables) Store(name string, t *table.Table) error {
	if err := d.check(name, t); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[name] = t
	return nil
}

// Append implements provider.Provider: t's rows are added to the
// dataset (created on first use). The lookup, schema check and concat
// run under the table's lock, so a concurrent Store lands wholly before
// or wholly after the append and is never lost.
func (d *Tables) Append(name string, t *table.Table) error {
	if err := d.check(name, t); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.m[name]
	if !ok {
		d.m[name] = t
		return nil
	}
	if !cur.Schema().Equal(t.Schema()) {
		return fmt.Errorf("%s: append schema %v does not match dataset %q schema %v", d.kind, t.Schema(), name, cur.Schema())
	}
	merged, err := cur.Concat(t)
	if err != nil {
		return fmt.Errorf("%s: append to %q: %w", d.kind, name, err)
	}
	d.m[name] = merged
	return nil
}

// Drop implements provider.Provider.
func (d *Tables) Drop(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.m, name)
}

// Dataset returns the named table; it is the engines' dataset resolver.
func (d *Tables) Dataset(name string) (*table.Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.m[name]
	return t, ok
}

// DatasetSchema implements provider.Provider.
func (d *Tables) DatasetSchema(name string) (schema.Schema, bool) {
	t, ok := d.Dataset(name)
	if !ok {
		return schema.Schema{}, false
	}
	return t.Schema(), true
}

// Datasets implements provider.Provider, sorted by name.
func (d *Tables) Datasets() []provider.DatasetInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]provider.DatasetInfo, 0, len(d.m))
	for n, t := range d.m {
		out = append(out, provider.DatasetInfo{Name: n, Schema: t.Schema(), Rows: int64(t.NumRows())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
