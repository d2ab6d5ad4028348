// Package provider defines the back-end abstraction of the nexus
// framework — the analogue of a LINQ Provider. A provider hosts named
// datasets, declares which algebra operators it can execute natively
// through a capability set, accepts whole plans (expression trees, not
// per-operator calls), and can store shipped intermediate results so
// that multi-server plans pass data directly between providers.
package provider

import (
	"fmt"
	"sort"
	"strings"

	"nexus/internal/core"
	"nexus/internal/schema"
	"nexus/internal/table"
)

// Capabilities describes what a provider can execute. Ops is a bitset
// over core.OpKind; Kernels names native iterative kernels (e.g.
// "pagerank") that the planner's intent recognizer may target.
type Capabilities struct {
	ops     uint64
	kernels map[string]bool
}

// NewCapabilities builds a capability set from supported operator kinds.
func NewCapabilities(ops ...core.OpKind) Capabilities {
	var c Capabilities
	for _, k := range ops {
		c.ops |= 1 << uint(k)
	}
	return c
}

// AllOps returns a capability set supporting every algebra operator.
func AllOps() Capabilities {
	return NewCapabilities(core.AllOpKinds()...)
}

// Bits returns the operator bitset for wire transmission.
func (c Capabilities) Bits() uint64 { return c.ops }

// FromBits reconstructs a capability set from its wire form.
func FromBits(bits uint64, kernels []string) Capabilities {
	c := Capabilities{ops: bits}
	if len(kernels) > 0 {
		c.kernels = make(map[string]bool, len(kernels))
		for _, k := range kernels {
			c.kernels[k] = true
		}
	}
	return c
}

// WithKernels returns a copy with the named native kernels added.
func (c Capabilities) WithKernels(names ...string) Capabilities {
	out := c
	out.kernels = make(map[string]bool, len(c.kernels)+len(names))
	for k := range c.kernels {
		out.kernels[k] = true
	}
	for _, n := range names {
		out.kernels[n] = true
	}
	return out
}

// Without returns a copy with the given operator kinds removed.
func (c Capabilities) Without(ops ...core.OpKind) Capabilities {
	out := c
	for _, k := range ops {
		out.ops &^= 1 << uint(k)
	}
	return out
}

// Supports reports whether the operator kind is executable here.
func (c Capabilities) Supports(k core.OpKind) bool {
	return c.ops&(1<<uint(k)) != 0
}

// SupportsKernel reports whether the named native kernel is available.
func (c Capabilities) SupportsKernel(name string) bool { return c.kernels[name] }

// Kernels returns the sorted kernel names.
func (c Capabilities) Kernels() []string {
	out := make([]string, 0, len(c.kernels))
	for k := range c.kernels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SupportsPlan reports whether every operator in the plan is supported;
// when false, the second result names the first unsupported operator.
func (c Capabilities) SupportsPlan(plan core.Node) (bool, core.OpKind) {
	ok := true
	var missing core.OpKind
	core.Walk(plan, func(n core.Node) bool {
		if !c.Supports(n.Kind()) {
			ok = false
			missing = n.Kind()
			return false
		}
		return true
	})
	return ok, missing
}

// String renders the capability set compactly.
func (c Capabilities) String() string {
	var ops []string
	for _, k := range core.AllOpKinds() {
		if c.Supports(k) {
			ops = append(ops, k.String())
		}
	}
	s := strings.Join(ops, ",")
	if len(c.kernels) > 0 {
		s += " kernels:" + strings.Join(c.Kernels(), ",")
	}
	return s
}

// DatasetInfo describes one hosted dataset.
type DatasetInfo struct {
	Name   string
	Schema schema.Schema
	Rows   int64
}

// Provider is a back-end service: a data/analytics server that accepts
// algebra plans and hosts named datasets that can be replaced (Store),
// extended (Append) or removed (Drop). Implementations must be safe for
// concurrent use; in particular a Store racing an Append on the same
// dataset leaves either the stored table or the stored table plus the
// appended rows, never the old rows plus the appended ones.
type Provider interface {
	// Name identifies the provider in plans and diagnostics.
	Name() string
	// Capabilities declares the executable operator set.
	Capabilities() Capabilities
	// Datasets lists hosted datasets.
	Datasets() []DatasetInfo
	// DatasetSchema resolves one dataset's schema.
	DatasetSchema(name string) (schema.Schema, bool)
	// Execute runs a whole plan and returns the result collection.
	Execute(plan core.Node) (*table.Table, error)
	// Store registers a table under a name (shipped intermediates and
	// user data both arrive this way).
	Store(name string, t *table.Table) error
	// Append adds rows to a dataset, creating it on first use; the rows'
	// schema must equal the dataset's. Durable providers append to
	// their WAL, in-memory ones concatenate, remote ones forward it.
	Append(name string, t *table.Table) error
	// Drop removes a dataset (intermediate cleanup).
	Drop(name string)
}

// Registry is a set of providers keyed by name, shared by the session and
// the federated planner.
type Registry struct {
	providers map[string]Provider
	order     []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{providers: map[string]Provider{}}
}

// Add registers a provider; duplicate names are an error.
func (r *Registry) Add(p Provider) error {
	if _, dup := r.providers[p.Name()]; dup {
		return fmt.Errorf("provider: duplicate provider %q", p.Name())
	}
	r.providers[p.Name()] = p
	r.order = append(r.order, p.Name())
	return nil
}

// Get returns the named provider.
func (r *Registry) Get(name string) (Provider, bool) {
	p, ok := r.providers[name]
	return p, ok
}

// Names returns provider names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// All returns providers in registration order.
func (r *Registry) All() []Provider {
	out := make([]Provider, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.providers[n])
	}
	return out
}

// FindDataset locates the provider hosting the named dataset. When
// several host it (replication), the first in registration order wins.
func (r *Registry) FindDataset(name string) (Provider, schema.Schema, bool) {
	for _, pn := range r.order {
		p := r.providers[pn]
		if s, ok := p.DatasetSchema(name); ok {
			return p, s, true
		}
	}
	return nil, schema.Schema{}, false
}
