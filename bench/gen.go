package main

import "math/rand"

// The benchmark owns its inputs: everything the program is fed comes
// from these seeded generators, as plain Go slices. Nothing here
// imports the program, so a change to its demo data cannot move a
// workload. layers.go turns the slices into the program's tables.

// Regions is the region dictionary of the sales fact table. Ten values
// make `region = c` a 10 % predicate.
var Regions = []string{"EU", "NA", "APAC", "LATAM", "MEA", "ANZ", "CEE", "DACH", "NORD", "SSA"}

// Symbols is the key space of the streaming workload.
const Symbols = 64

// Sales is the 6-column fact table (sale_id, cust_id, prod_id, qty,
// price, region), column-wise. SaleID is 0..n-1 in row order; callers
// shuffle with Perm before loading.
type Sales struct {
	SaleID, CustID, ProdID, Qty []int64
	Price                       []float64
	Region                      []string
}

// GenSales generates n sales rows. qty is uniform in 1..10; price is a
// multiple of 0.25 in [100, 10000), so sums of price and price*qty are
// exact in float64 whatever order an engine adds them in and result
// checksums can be compared bit for bit across engines.
func GenSales(seed int64, n int) Sales {
	rng := rand.New(rand.NewSource(seed))
	s := Sales{
		SaleID: make([]int64, n), CustID: make([]int64, n), ProdID: make([]int64, n),
		Qty: make([]int64, n), Price: make([]float64, n), Region: make([]string, n),
	}
	for i := 0; i < n; i++ {
		s.SaleID[i] = int64(i)
		s.CustID[i] = int64(rng.Intn(5000))
		s.ProdID[i] = int64(rng.Intn(1000))
		s.Qty[i] = int64(1 + rng.Intn(10))
		s.Price[i] = float64(400+rng.Intn(39600)) / 4
		s.Region[i] = Regions[rng.Intn(len(Regions))]
	}
	return s
}

// RawBytes is the size of the rows as plain values — five 8-byte
// numbers and the region string — the "user bytes" that write and space
// amplification are measured against.
func (s Sales) RawBytes() int64 {
	n := int64(len(s.SaleID)) * 40
	for _, r := range s.Region {
		n += int64(len(r))
	}
	return n
}

// Take returns the rows at the given positions, in that order.
func (s Sales) Take(idx []int) Sales {
	out := Sales{
		SaleID: make([]int64, len(idx)), CustID: make([]int64, len(idx)), ProdID: make([]int64, len(idx)),
		Qty: make([]int64, len(idx)), Price: make([]float64, len(idx)), Region: make([]string, len(idx)),
	}
	for j, i := range idx {
		out.SaleID[j], out.CustID[j], out.ProdID[j] = s.SaleID[i], s.CustID[i], s.ProdID[i]
		out.Qty[j], out.Price[j], out.Region[j] = s.Qty[i], s.Price[i], s.Region[i]
	}
	return out
}

// Perm returns a seeded permutation of 0..n-1 (the load order).
func Perm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5bd1e995)).Perm(n)
}

// EventGen produces the append batches of ingest_mixed: rows of
// (event_id, device, kind, value, region) with event_id dense and
// ascending across batches, so the most recent keys are a key range.
type EventGen struct {
	rng  *rand.Rand
	next int64
}

// NewEventGen starts the event stream of a seed.
func NewEventGen(seed int64) *EventGen {
	return &EventGen{rng: rand.New(rand.NewSource(seed ^ 0x2545f491))}
}

// Events is one append batch, column-wise.
type Events struct {
	EventID, Device, Kind []int64
	Value                 []float64
	Region                []string
}

// RawBytes is the size of the batch as plain values (see Sales.RawBytes).
func (e Events) RawBytes() int64 {
	n := int64(len(e.EventID)) * 32
	for _, r := range e.Region {
		n += int64(len(r))
	}
	return n
}

// Next generates the next n events.
func (g *EventGen) Next(n int) Events {
	e := Events{
		EventID: make([]int64, n), Device: make([]int64, n), Kind: make([]int64, n),
		Value: make([]float64, n), Region: make([]string, n),
	}
	for i := 0; i < n; i++ {
		e.EventID[i] = g.next
		g.next++
		e.Device[i] = int64(g.rng.Intn(2000))
		e.Kind[i] = int64(g.rng.Intn(8))
		e.Value[i] = float64(g.rng.Intn(40000)) / 4
		e.Region[i] = Regions[g.rng.Intn(len(Regions))]
	}
	return e
}

// Tick is one streaming event: event time in ms, a symbol key, a price
// (multiple of 0.25, see GenSales) and a quantity.
type Tick struct {
	TS  int64
	Sym string
	Px  float64
	Qty int64
}

// SymName names symbol i.
func SymName(i int) string {
	return "S" + string(rune('A'+i/8)) + string(rune('0'+i%8))
}

// GenTicks generates n events at perMs events per millisecond of event
// time: event i is due (and stamped) at i/perMs ms, except that one
// event in a hundred is stamped up to maxLateMs earlier — late, but
// inside the allowed lateness, so none is dropped.
func GenTicks(seed int64, n, perMs int, maxLateMs int64) []Tick {
	rng := rand.New(rand.NewSource(seed ^ 0x3c6ef372))
	syms := make([]string, Symbols)
	for i := range syms {
		syms[i] = SymName(i)
	}
	out := make([]Tick, n)
	for i := range out {
		ts := int64(i / perMs)
		if rng.Intn(100) == 0 {
			if ts -= 1 + rng.Int63n(maxLateMs); ts < 0 {
				ts = 0
			}
		}
		out[i] = Tick{TS: ts, Sym: syms[rng.Intn(Symbols)], Px: float64(400+rng.Intn(3600)) / 4, Qty: int64(rng.Intn(10))}
	}
	return out
}
