package provider

import (
	"testing"

	"nexus/internal/core"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

func TestCapabilityBitset(t *testing.T) {
	c := NewCapabilities(core.KScan, core.KFilter, core.KJoin)
	if !c.Supports(core.KScan) || !c.Supports(core.KJoin) {
		t.Fatal("declared ops missing")
	}
	if c.Supports(core.KMatMul) {
		t.Fatal("undeclared op present")
	}
	w := c.Without(core.KJoin)
	if w.Supports(core.KJoin) || !w.Supports(core.KScan) {
		t.Fatal("Without broken")
	}
	if !c.Supports(core.KJoin) {
		t.Fatal("Without mutated the receiver")
	}
	all := AllOps()
	for _, k := range core.AllOpKinds() {
		if !all.Supports(k) {
			t.Fatalf("AllOps missing %v", k)
		}
	}
}

func TestCapabilityKernels(t *testing.T) {
	c := NewCapabilities(core.KScan).WithKernels("pagerank", "cc")
	if !c.SupportsKernel("pagerank") || c.SupportsKernel("sssp") {
		t.Fatal("kernels broken")
	}
	if ks := c.Kernels(); len(ks) != 2 || ks[0] != "cc" {
		t.Fatalf("Kernels() = %v (want sorted)", ks)
	}
	// WithKernels must not mutate.
	c2 := c.WithKernels("sssp")
	if c.SupportsKernel("sssp") {
		t.Fatal("WithKernels mutated the receiver")
	}
	if !c2.SupportsKernel("sssp") || !c2.SupportsKernel("cc") {
		t.Fatal("WithKernels dropped kernels")
	}
}

func TestCapabilityBitsRoundTrip(t *testing.T) {
	c := NewCapabilities(core.KScan, core.KIterate).WithKernels("pagerank")
	back := FromBits(c.Bits(), c.Kernels())
	for _, k := range core.AllOpKinds() {
		if c.Supports(k) != back.Supports(k) {
			t.Fatalf("bit round trip differs at %v", k)
		}
	}
	if !back.SupportsKernel("pagerank") {
		t.Fatal("kernel lost in round trip")
	}
}

func TestSupportsPlan(t *testing.T) {
	sch := schema.New(schema.Attribute{Name: "x", Kind: value.KindInt64})
	s, _ := core.NewScan("d", sch)
	d, _ := core.NewDistinct(s)
	c := NewCapabilities(core.KScan)
	ok, missing := c.SupportsPlan(d)
	if ok || missing != core.KDistinct {
		t.Fatalf("SupportsPlan = %v, %v", ok, missing)
	}
	ok, _ = NewCapabilities(core.KScan, core.KDistinct).SupportsPlan(d)
	if !ok {
		t.Fatal("full support rejected")
	}
}

// fakeProvider exercises the registry without an engine.
type fakeProvider struct {
	name string
	data map[string]schema.Schema
}

func (f *fakeProvider) Name() string               { return f.name }
func (f *fakeProvider) Capabilities() Capabilities { return AllOps() }
func (f *fakeProvider) Datasets() []DatasetInfo    { return nil }
func (f *fakeProvider) DatasetSchema(name string) (schema.Schema, bool) {
	s, ok := f.data[name]
	return s, ok
}
func (f *fakeProvider) Execute(core.Node) (*table.Table, error) { return nil, nil }
func (f *fakeProvider) Store(string, *table.Table) error        { return nil }
func (f *fakeProvider) Append(string, *table.Table) error       { return nil }
func (f *fakeProvider) Drop(string)                             {}

func TestRegistry(t *testing.T) {
	sch := schema.New(schema.Attribute{Name: "x", Kind: value.KindInt64})
	a := &fakeProvider{name: "a", data: map[string]schema.Schema{"shared": sch, "onlyA": sch}}
	b := &fakeProvider{name: "b", data: map[string]schema.Schema{"shared": sch, "onlyB": sch}}
	reg := NewRegistry()
	if err := reg.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(&fakeProvider{name: "a"}); err == nil {
		t.Fatal("duplicate provider accepted")
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Names = %v", got)
	}
	// Replication: first registered wins.
	p, _, ok := reg.FindDataset("shared")
	if !ok || p.Name() != "a" {
		t.Fatalf("FindDataset shared -> %v", p)
	}
	p, _, ok = reg.FindDataset("onlyB")
	if !ok || p.Name() != "b" {
		t.Fatal("FindDataset onlyB broken")
	}
	if _, _, ok := reg.FindDataset("ghost"); ok {
		t.Fatal("found nonexistent dataset")
	}
	if _, ok := reg.Get("b"); !ok {
		t.Fatal("Get broken")
	}
}
