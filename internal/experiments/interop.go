package experiments

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/server"
)

// E4 — Server Interoperation (desideratum D4): "An algebra query that
// spans servers should be realizable as a plan where intermediate results
// pass directly between servers, rather than being routed through the
// application or a middle tier."
//
// A cross-site join+aggregate runs under both shipping modes at several
// data sizes; the table reports end-to-end latency, intermediate bytes
// through the client (exactly 0 in direct mode) and peer bytes. With
// useTCP the whole exchange runs over loopback sockets through real
// servers; otherwise the in-process transport gives the same byte
// accounting without socket noise.
func E4Interop(rowCounts []int, useTCP bool) (*Result, error) {
	if len(rowCounts) == 0 {
		rowCounts = []int{10000, 50000, 200000}
	}
	transport := "in-process"
	if useTCP {
		transport = "TCP loopback"
	}
	res := &Result{
		ID:     "E4",
		Title:  fmt.Sprintf("multi-server join: direct vs client-routed shipping (%s)", transport),
		Claim:  "intermediates should pass directly between servers, not through the application tier",
		Header: []string{"rows", "mode", "latency", "intermediate via client", "peer bytes", "client in", "round trips"},
	}
	for _, rows := range rowCounts {
		siteA := relational.New("siteA")
		if err := siteA.Store("sales", datagen.Sales(int64(rows), rows, rows/10+1, 50)); err != nil {
			return nil, err
		}
		siteB := relational.New("siteB")
		if err := siteB.Store("customers", datagen.Customers(7, rows/10+1)); err != nil {
			return nil, err
		}
		reg := provider.NewRegistry()
		if err := reg.Add(siteA); err != nil {
			return nil, err
		}
		if err := reg.Add(siteB); err != nil {
			return nil, err
		}
		plan, err := crossSiteJoinPlan()
		if err != nil {
			return nil, err
		}
		opt, err := planner.Optimize(plan, planner.DefaultOptions())
		if err != nil {
			return nil, err
		}
		pp, err := planner.Partition(opt, reg, planner.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if len(pp.Fragments) < 2 {
			return nil, fmt.Errorf("E4: expected a multi-fragment plan, got %d", len(pp.Fragments))
		}

		var transports []federation.Transport
		var cleanup func()
		if useTCP {
			srvA, err := server.Serve(siteA, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srvB, err := server.Serve(siteB, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			ta, err := federation.DialMux(srvA.Addr(), federation.DialOpts{})
			if err != nil {
				return nil, err
			}
			tb, err := federation.DialMux(srvB.Addr(), federation.DialOpts{})
			if err != nil {
				return nil, err
			}
			transports = []federation.Transport{ta, tb}
			cleanup = func() {
				ta.Close()
				tb.Close()
				srvA.Close()
				srvB.Close()
			}
		} else {
			ta, tb := federation.NewInProc(siteA), federation.NewInProc(siteB)
			transports = []federation.Transport{ta, tb}
			cleanup = func() {
				ta.Close()
				tb.Close()
			}
		}
		coord := federation.NewCoordinator(transports...)
		var checksums [2]uint64
		for i, mode := range []federation.Mode{federation.ModeDirect, federation.ModeRouted} {
			t0 := time.Now()
			out, m, err := coord.Run(pp, mode)
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("E4 %v rows=%d: %w", mode, rows, err)
			}
			elapsed := time.Since(t0)
			checksums[i] = out.Checksum()
			res.AddRow(
				fmt.Sprintf("%d", rows),
				mode.String(),
				fmtDur(elapsed),
				fmtBytes(m.IntermediateViaClient),
				fmtBytes(m.PeerBytes),
				fmtBytes(m.ClientBytesIn),
				fmt.Sprintf("%d", m.RoundTrips),
			)
		}
		cleanup()
		if checksums[0] != checksums[1] {
			return nil, fmt.Errorf("E4 rows=%d: modes disagree", rows)
		}
	}
	res.Note("both modes produce identical results (checksum-verified); direct mode keeps intermediate bytes off the client at every size")
	return res, nil
}

// crossSiteJoinPlan: filter the fact table on site A, join the dimension
// on site B, aggregate. The filtered fact rows are the intermediate that
// must travel.
func crossSiteJoinPlan() (core.Node, error) {
	sales, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		return nil, err
	}
	cust, err := core.NewScan("customers", datagen.CustomersSchema())
	if err != nil {
		return nil, err
	}
	f, err := core.NewFilter(sales, expr.Gt(expr.Column("qty"), expr.CInt(3)))
	if err != nil {
		return nil, err
	}
	j, err := core.NewJoin(cust, f, core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	if err != nil {
		return nil, err
	}
	return core.NewGroupAgg(j, []string{"segment"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
		{Func: core.AggCount, As: "n"},
	})
}
