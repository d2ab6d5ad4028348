// Package federation executes partitioned plans across multiple
// providers — the paper's "multi-server applications" goal. A
// Coordinator drives the fragment DAG over an abstract Transport (an
// in-process binding for tests and benchmarks, and a Mux for real
// servers — the one client transport, which multiplexes queries and
// stream subscriptions over one connection) in one of two shipping
// modes:
//
//   - ModeDirect: a producing server pushes its fragment's result
//     straight to the consuming server (desideratum D4); the client sees
//     only plans and small acks.
//   - ModeRouted: every intermediate returns to the client, which
//     re-uploads it to the consumer — the middle-tier anti-pattern the
//     paper argues against, kept as the measured baseline.
//
// Every byte on every path is accounted in Metrics; the interoperation
// experiment (E4) reports exactly these counters.
package federation

import (
	"fmt"

	"nexus/internal/core"
	"nexus/internal/planner"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// Mode selects how intermediates travel between providers.
type Mode int

// Shipping modes.
const (
	ModeDirect Mode = iota
	ModeRouted
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeDirect {
		return "direct"
	}
	return "routed"
}

// Metrics accounts for all traffic during one federated execution.
type Metrics struct {
	// Trace, when valid, is an INPUT: transports record a client span
	// under it for every exchange and propagate the span's context on
	// the wire, so server-side spans stitch into the caller's trace.
	Trace wire.TraceCtx

	// ClientBytesOut counts bytes the client (application tier) sent:
	// plans, and in routed mode re-uploaded intermediates.
	ClientBytesOut int64
	// ClientBytesIn counts bytes the client received: results, acks, and
	// in routed mode every intermediate.
	ClientBytesIn int64
	// IntermediateViaClient counts only intermediate table payloads that
	// crossed the application tier — exactly 0 in direct mode.
	IntermediateViaClient int64
	// PeerBytes counts bytes moved directly between servers.
	PeerBytes int64
	// RoundTrips counts client-initiated request/response exchanges.
	RoundTrips int
	// Fragments counts executed fragments.
	Fragments int
}

// Transport is a client-side handle to one provider's server.
type Transport interface {
	// ProviderName identifies the provider this transport reaches.
	ProviderName() string
	// Execute runs a plan and returns the result to the client.
	Execute(plan core.Node, m *Metrics) (*table.Table, error)
	// ExecuteTo runs a plan and pushes the result to the peer transport's
	// server under storeAs, without returning it to the client.
	ExecuteTo(plan core.Node, peer Transport, storeAs string, m *Metrics) error
	// Store uploads a table from the client.
	Store(name string, t *table.Table, m *Metrics) error
	// Drop removes a dataset (intermediate cleanup; best effort).
	Drop(name string, m *Metrics)
	// PeerAddr returns the address peers use to push to this server ("",
	// for in-process transports, means pass the handle itself).
	PeerAddr() string
}

// encodeForAccounting returns the wire encoding of a table, used to
// attribute intermediate bytes that crossed the client in routed mode.
func encodeForAccounting(t *table.Table) []byte { return wire.EncodeTable(t) }

// Coordinator executes fragment DAGs over a set of transports.
type Coordinator struct {
	transports map[string]Transport
}

// NewCoordinator builds a coordinator over the given transports.
func NewCoordinator(transports ...Transport) *Coordinator {
	m := make(map[string]Transport, len(transports))
	for _, t := range transports {
		m[t.ProviderName()] = t
	}
	return &Coordinator{transports: m}
}

// Run executes a partitioned plan in the given mode, returning the root
// fragment's result and the traffic metrics.
func (c *Coordinator) Run(pp *planner.PartitionedPlan, mode Mode) (*table.Table, *Metrics, error) {
	return c.RunTraced(pp, mode, wire.TraceCtx{})
}

// RunTraced is Run with a trace context: every fragment execution,
// intermediate store, and cleanup drop records a client span under tc
// and propagates it to the servers involved, so the whole partition
// fan-out appears in one trace.
func (c *Coordinator) RunTraced(pp *planner.PartitionedPlan, mode Mode, tc wire.TraceCtx) (*table.Table, *Metrics, error) {
	m := &Metrics{Trace: tc}

	// Each non-root fragment has exactly one consumer (the partitioner
	// builds a tree); map producer fragment ID to its destination.
	type dest struct {
		provider string
		storeAs  string
	}
	dests := map[int]dest{}
	for _, f := range pp.Fragments {
		for _, in := range f.Inputs {
			dests[in.FromFragment] = dest{provider: f.Provider, storeAs: in.StoreAs}
		}
	}

	// Track stored intermediates for cleanup.
	type stored struct {
		provider string
		name     string
	}
	var temps []stored
	defer func() {
		for _, s := range temps {
			if tr, ok := c.transports[s.provider]; ok {
				tr.Drop(s.name, m)
			}
		}
	}()

	root := pp.Root()
	var result *table.Table
	for _, f := range pp.Fragments {
		tr, ok := c.transports[f.Provider]
		if !ok {
			return nil, m, fmt.Errorf("federation: no transport for provider %q", f.Provider)
		}
		m.Fragments++
		if f == root {
			t, err := tr.Execute(f.Plan, m)
			if err != nil {
				return nil, m, fmt.Errorf("federation: root fragment on %s: %w", f.Provider, err)
			}
			result = t
			continue
		}
		d, ok := dests[f.ID]
		if !ok {
			return nil, m, fmt.Errorf("federation: fragment %d has no consumer", f.ID)
		}
		peer, ok := c.transports[d.provider]
		if !ok {
			return nil, m, fmt.Errorf("federation: no transport for provider %q", d.provider)
		}
		switch mode {
		case ModeDirect:
			if err := tr.ExecuteTo(f.Plan, peer, d.storeAs, m); err != nil {
				return nil, m, fmt.Errorf("federation: fragment %d on %s → %s: %w", f.ID, f.Provider, d.provider, err)
			}
		case ModeRouted:
			t, err := tr.Execute(f.Plan, m)
			if err != nil {
				return nil, m, fmt.Errorf("federation: fragment %d on %s: %w", f.ID, f.Provider, err)
			}
			m.IntermediateViaClient += int64(len(encodeForAccounting(t)))
			if err := peer.Store(d.storeAs, t, m); err != nil {
				return nil, m, fmt.Errorf("federation: store %s on %s: %w", d.storeAs, d.provider, err)
			}
		}
		temps = append(temps, stored{provider: d.provider, name: d.storeAs})
	}
	if result == nil {
		return nil, m, fmt.Errorf("federation: plan produced no root result")
	}
	return result, m, nil
}
