package nexus

import (
	"fmt"
	"path/filepath"
	"time"

	"nexus/internal/datagen"
	"nexus/internal/engines/array"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/federation"
	"nexus/internal/lang"
	"nexus/internal/obs/trace"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/storage"
	"nexus/internal/stream"
	"nexus/internal/table"
)

// EngineKind selects an in-process back-end engine type.
type EngineKind int

// The four engine classes the framework ships, mirroring the system
// classes the paper enumerates: column stores, array databases,
// linear-algebra packages, graph-analysis environments.
const (
	Relational EngineKind = iota
	Array
	LinAlg
	Graph
)

// String names the kind.
func (k EngineKind) String() string {
	switch k {
	case Relational:
		return "relational"
	case Array:
		return "array"
	case LinAlg:
		return "linalg"
	case Graph:
		return "graph"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// ShipMode selects how federated intermediates travel.
type ShipMode = federation.Mode

// Shipping modes: Direct moves intermediates server→server (the paper's
// desideratum D4); Routed bounces them through the client, kept as the
// measured baseline.
const (
	Direct = federation.ModeDirect
	Routed = federation.ModeRouted
)

// Metrics reports traffic of a federated execution.
type Metrics = federation.Metrics

// Session owns a set of providers (in-process engines and/or remote
// servers), plans queries against them and executes the fragments.
type Session struct {
	reg        *provider.Registry
	transports []federation.Transport
	opts       planner.Options
	mode       ShipMode
	root       *trace.Span // session trace root; nil until traced (see tracing.go)
}

// NewSession returns an empty session with all optimizations enabled and
// direct shipping.
func NewSession() *Session {
	return &Session{
		reg:  provider.NewRegistry(),
		opts: planner.DefaultOptions(),
		mode: Direct,
	}
}

// SetShipMode switches between direct and client-routed intermediate
// shipping for subsequent queries.
func (s *Session) SetShipMode(m ShipMode) { s.mode = m }

// OptimizerOptions mirrors the planner switches for ablation studies.
type OptimizerOptions struct {
	Fold          bool
	Pushdown      bool
	Prune         bool
	PushLimit     bool
	IntentMatMul  bool
	IntentKernels bool
}

// SetOptimizerOptions replaces the optimizer configuration.
func (s *Session) SetOptimizerOptions(o OptimizerOptions) {
	s.opts = planner.Options(o)
}

// DisableOptimizations turns every rewrite off (baseline runs).
func (s *Session) DisableOptimizations() { s.opts = planner.NoOptions() }

// AddEngine creates an in-process engine of the given kind, registers it
// as a provider, and returns its name for Store calls.
func (s *Session) AddEngine(kind EngineKind, name string) (string, error) {
	var p provider.Provider
	switch kind {
	case Relational:
		p = relational.New(name)
	case Array:
		p = array.New(name)
	case LinAlg:
		p = linalg.New(name)
	case Graph:
		p = graph.New(name)
	default:
		return "", fmt.Errorf("nexus: unknown engine kind %v", kind)
	}
	if err := s.reg.Add(p); err != nil {
		return "", err
	}
	s.transports = append(s.transports, federation.NewInProc(p))
	return p.Name(), nil
}

// Open opens (or creates) a durable data directory as a provider: a
// crash-recoverable columnar engine whose datasets survive restarts.
// The provider is named after the directory's base name ("durable" for
// degenerate paths); the name is returned for Store/Persist calls.
func (s *Session) Open(dir string) (string, error) {
	name := filepath.Base(filepath.Clean(dir))
	if name == "." || name == string(filepath.Separator) || name == "" {
		name = "durable"
	}
	eng, err := storage.OpenEngine(name, dir)
	if err != nil {
		return "", err
	}
	if err := s.reg.Add(eng); err != nil {
		eng.Close()
		return "", err
	}
	s.transports = append(s.transports, federation.NewInProc(eng))
	return eng.Name(), nil
}

// Persist copies a dataset from whichever provider currently hosts it
// onto the named provider — typically one opened with Open, making an
// in-memory dataset durable. The source copy is left in place.
func (s *Session) Persist(providerName, dataset string) error {
	dst, ok := s.reg.Get(providerName)
	if !ok {
		return fmt.Errorf("nexus: unknown provider %q", providerName)
	}
	src, sch, ok := s.reg.FindDataset(dataset)
	if !ok {
		return fmt.Errorf("nexus: unknown dataset %q", dataset)
	}
	scan, err := coreScan(dataset, sch)
	if err != nil {
		return err
	}
	t, err := src.Execute(scan)
	if err != nil {
		return fmt.Errorf("nexus: persist %q: %w", dataset, err)
	}
	return dst.Store(dataset, t)
}

// Append adds rows to a dataset on the named provider, creating it on
// first use: a WAL append on durable providers (and -data-dir servers),
// a concatenation on in-memory engines.
func (s *Session) Append(providerName, dataset string, t *Table) error {
	p, ok := s.reg.Get(providerName)
	if !ok {
		return fmt.Errorf("nexus: unknown provider %q", providerName)
	}
	return p.Append(dataset, t.t)
}

// ConnectTCP attaches a remote nexus server (started with cmd/nexus-server
// or server.Serve) as a provider.
func (s *Session) ConnectTCP(addr string) (string, error) {
	return s.Connect(addr, ConnectOptions{})
}

// ConnectOptions configures Connect.
type ConnectOptions struct {
	// Tenant identifies this client to the server's admission control
	// (per-tenant quotas; see server.AdmissionConfig). Empty is the
	// anonymous tenant.
	Tenant string
	// Deprecated: every connection is multiplexed; ignored.
	Mux bool
	// ConnectTimeout and RequestTimeout override the network budgets
	// (zero keeps the defaults; see federation.DialOpts).
	ConnectTimeout time.Duration
	RequestTimeout time.Duration
	// Trace puts the connection under the session's trace: the dial and
	// hello handshake record client spans, the server parents its
	// handshake span there, and Session.TraceID reports the id to look
	// up at /debug/traces. Queries and subscriptions marked with Trace
	// join the same session trace.
	Trace bool
}

// Connect attaches a remote nexus server as a provider with explicit
// front-door options: a tenant identity for admission control and
// request budgets. Everything the session sends to the server —
// queries, appends and any number of stream subscriptions — shares ONE
// multiplexed connection with per-stream flow control.
func (s *Session) Connect(addr string, o ConnectOptions) (string, error) {
	opts := federation.DialOpts{
		ConnectTimeout: o.ConnectTimeout,
		RequestTimeout: o.RequestTimeout,
		Tenant:         o.Tenant,
	}
	if o.Trace {
		opts.Trace = toWireTrace(s.traceRoot().Context())
	}
	tr, err := federation.DialMux(addr, opts)
	if err != nil {
		return "", err
	}
	rp := &remoteProvider{tr: tr}
	if err := s.reg.Add(rp); err != nil {
		tr.Close()
		return "", err
	}
	s.transports = append(s.transports, tr)
	return tr.ProviderName(), nil
}

// Close releases every network connection the session holds (remote
// providers attached with Connect/ConnectTCP). In-process engines are
// not touched. The session must not be used afterwards.
func (s *Session) Close() {
	for _, tr := range s.transports {
		if c, ok := tr.(interface{ Close() }); ok {
			c.Close()
		}
	}
	s.transports = nil
	// The session root span records on close — until then only its
	// finished children sit in the trace ring.
	s.root.End(nil)
	s.root = nil
}

// Store uploads a table to the named provider as a dataset.
func (s *Session) Store(providerName, dataset string, t *Table) error {
	p, ok := s.reg.Get(providerName)
	if !ok {
		return fmt.Errorf("nexus: unknown provider %q", providerName)
	}
	return p.Store(dataset, t.t)
}

// DatasetSchema reports the schema of a dataset wherever it is hosted.
func (s *Session) DatasetSchema(dataset string) (string, bool) {
	_, sch, ok := s.reg.FindDataset(dataset)
	if !ok {
		return "", false
	}
	return sch.String(), true
}

// DatasetInfo describes one hosted dataset for catalog listings.
type DatasetInfo struct {
	Provider string
	Name     string
	Rows     int64
	Schema   string
	// Durable reports whether the hosting provider persists the dataset
	// across restarts (a provider opened with Open, or a -data-dir
	// server on its own machine — remote durability is not visible here).
	Durable bool
}

// Datasets lists every dataset across all providers.
func (s *Session) Datasets() []DatasetInfo {
	var out []DatasetInfo
	for _, p := range s.reg.All() {
		durable := false
		if d, ok := p.(interface{ Durable() bool }); ok {
			durable = d.Durable()
		}
		for _, ds := range p.Datasets() {
			out = append(out, DatasetInfo{
				Provider: p.Name(),
				Name:     ds.Name,
				Rows:     ds.Rows,
				Schema:   ds.Schema.String(),
				Durable:  durable,
			})
		}
	}
	return out
}

// Providers lists registered provider names in registration order.
func (s *Session) Providers() []string { return s.reg.Names() }

// Scan starts a query over a named dataset (resolved against every
// provider's catalog).
func (s *Session) Scan(dataset string) *Query {
	_, sch, ok := s.reg.FindDataset(dataset)
	if !ok {
		return &Query{s: s, err: fmt.Errorf("nexus: unknown dataset %q", dataset)}
	}
	n, err := coreScan(dataset, sch)
	return &Query{s: s, node: n, err: err}
}

// TableQuery starts a query over a literal in-client table.
func (s *Session) TableQuery(t *Table) *Query {
	n, err := coreLiteral(t.t)
	return &Query{s: s, node: n, err: err}
}

// StreamFrom starts a streaming query (data in motion) over the source:
// a live channel (NewChannelStream), a replayed table (ReplayTable), or
// a generator (GenerateSource). The same algebra operators that Query
// offers apply incrementally, per micro-batch.
func (s *Session) StreamFrom(src StreamSource) *StreamQuery {
	return &StreamQuery{s: s, b: stream.NewBuilder(src)}
}

// StreamScan replays a stored dataset as a stream: the dataset is
// materialized from whichever provider hosts it and its rows are played
// back in order, with event time read from the named int64 column.
func (s *Session) StreamScan(dataset, timeCol string) *StreamQuery {
	p, sch, ok := s.reg.FindDataset(dataset)
	if !ok {
		return &StreamQuery{s: s, b: stream.FailedBuilder(fmt.Errorf("nexus: unknown dataset %q", dataset))}
	}
	scan, err := coreScan(dataset, sch)
	if err != nil {
		return &StreamQuery{s: s, b: stream.FailedBuilder(err)}
	}
	// Materialization is deferred to the stream's run: building (or
	// abandoning) the query never scans the dataset, mirroring the lazy
	// batch Scan.
	fetch := func() (*table.Table, error) { return p.Execute(scan) }
	q := s.StreamFrom(stream.NewLazyReplay(sch, timeCol, fetch))
	// Remember the dataset so a federated subscription can replay it on
	// the serving provider instead of shipping rows from here.
	q.dataset = dataset
	q.timeCol = timeCol
	return q
}

// streamTransport resolves a provider name to a transport that can host
// stream subscriptions (in-process engines and TCP servers both can).
func (s *Session) streamTransport(name string) (federation.StreamTransport, error) {
	for _, tr := range s.transports {
		if tr.ProviderName() == name {
			if st, ok := tr.(federation.StreamTransport); ok {
				return st, nil
			}
			return nil, fmt.Errorf("nexus: provider %q cannot host stream subscriptions", name)
		}
	}
	return nil, fmt.Errorf("nexus: unknown provider %q", name)
}

// Query compiles a surface-language pipeline (see internal/lang) into a
// Query against this session's catalogs.
func (s *Session) Query(src string) *Query {
	cat := lang.CatalogFunc(func(name string) (schema.Schema, bool) {
		_, sch, ok := s.reg.FindDataset(name)
		return sch, ok
	})
	n, err := lang.Compile(src, cat)
	return &Query{s: s, node: n, err: err}
}

// remoteProvider adapts a remote server's mux into the provider
// interface so the planner treats remote servers like local engines.
type remoteProvider struct {
	tr *federation.Mux
}

var _ provider.Provider = (*remoteProvider)(nil)

func (r *remoteProvider) Name() string { return r.tr.ProviderName() }

func (r *remoteProvider) Capabilities() provider.Capabilities { return r.tr.Capabilities() }

func (r *remoteProvider) Datasets() []provider.DatasetInfo {
	h := r.tr.Hello()
	out := make([]provider.DatasetInfo, 0, len(h.Datasets))
	for _, ds := range h.Datasets {
		sch, err := decodeSchema(ds.Schema)
		if err != nil {
			continue
		}
		out = append(out, provider.DatasetInfo{Name: ds.Name, Schema: sch, Rows: ds.Rows})
	}
	return out
}

func (r *remoteProvider) DatasetSchema(name string) (schema.Schema, bool) {
	for _, ds := range r.Datasets() {
		if ds.Name == name {
			return ds.Schema, true
		}
	}
	return schema.Schema{}, false
}

func (r *remoteProvider) Execute(plan coreNode) (*table.Table, error) {
	return r.tr.Execute(plan, nil)
}

func (r *remoteProvider) Store(name string, t *table.Table) error {
	return r.tr.Store(name, t, nil)
}

// Append implements provider.Provider: the server does the append
// natively (durable servers via their WAL).
func (r *remoteProvider) Append(name string, t *table.Table) error {
	return r.tr.Append(name, t, nil)
}

// Durable reports what the server declared at hello time, so remote
// -data-dir servers list their datasets as durable in the catalog.
func (r *remoteProvider) Durable() bool { return r.tr.Hello().Durable }

func (r *remoteProvider) Drop(name string) { r.tr.Drop(name, nil) }

// Demo loads the synthetic star schema, matrices, a graph and a series
// into the session's providers so the shell and quickstart have data to
// play with. It stores relational data on the first provider and array
// data on the last (spreading data across providers when several exist).
func (s *Session) Demo() error {
	names := s.reg.Names()
	if len(names) == 0 {
		return fmt.Errorf("nexus: no providers registered")
	}
	first, last := names[0], names[len(names)-1]
	rel := map[string]*table.Table{
		"sales":     datagen.Sales(1, 10000, 500, 100),
		"customers": datagen.Customers(2, 500),
		"products":  datagen.Products(3, 100),
		"edges":     datagen.ZipfGraph(4, 2000, 10000),
		"vertices":  graph.VerticesTable(2000),
	}
	arr := map[string]*table.Table{
		"A":      datagen.Matrix(5, 64, 64, "i", "k"),
		"B":      datagen.Matrix(6, 64, 64, "k", "j"),
		"series": datagen.Series(7, 2000),
		"grid":   datagen.Grid(8, 64, 64),
	}
	pf, _ := s.reg.Get(first)
	pl, _ := s.reg.Get(last)
	for name, t := range rel {
		if err := pf.Store(name, t); err != nil {
			return err
		}
	}
	for name, t := range arr {
		if err := pl.Store(name, t); err != nil {
			return err
		}
	}
	return nil
}
