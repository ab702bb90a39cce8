package tpch

import (
	"fmt"
	"strings"

	"dssmem/internal/db/engine"
	"dssmem/internal/db/executor"
	"dssmem/internal/db/storage"
)

// Query parameters (dbgen defaults where they matter).
var (
	q6Lo       = Date(1994, 1, 1)
	q6Hi       = Date(1995, 1, 1) // exclusive
	q6DiscLo   = int64(5)
	q6DiscHi   = int64(7)
	q6Quantity = int64(24)

	q12Lo    = Date(1994, 1, 1)
	q12Hi    = Date(1995, 1, 1)
	q12Mode1 = int64(ModeMail)
	q12Mode2 = int64(ModeShip)

	// Q21Nation is the nation whose suppliers Q21 audits.
	Q21Nation = int64(7)

	// Q21TopN is the result size ("top 100 suppliers" in the spec).
	Q21TopN = 100
)

// QueryID names one of the studied queries.
type QueryID int

// The three queries the paper selected as representative.
const (
	Q6 QueryID = iota
	Q21
	Q12
)

// String implements fmt.Stringer.
func (q QueryID) String() string {
	switch q {
	case Q6:
		return "Q6"
	case Q21:
		return "Q21"
	case Q12:
		return "Q12"
	case Q1:
		return "Q1"
	}
	return fmt.Sprintf("Q%d?", int(q))
}

// QueryByName resolves a query name in any case ("q21" is Q21); "" selects
// Q6. Every extension query is accepted.
func QueryByName(name string) (QueryID, error) {
	if name == "" {
		return Q6, nil
	}
	up := strings.ToUpper(name)
	for _, q := range ExtendedQueries {
		if up == q.String() {
			return q, nil
		}
	}
	return 0, fmt.Errorf("unknown query %q (Q6|Q21|Q12|Q1)", name)
}

// AllQueries lists the studied queries in the paper's order.
var AllQueries = []QueryID{Q6, Q21, Q12}

// Q12Row is one output group of Q12.
type Q12Row struct {
	ShipMode  int64
	HighCount int64
	LowCount  int64
}

// Q21Row is one output row of Q21.
type Q21Row struct {
	SuppKey int64
	NumWait int64
}

// Result is a query result with a stable digest for cross-checking.
type Result struct {
	Query   QueryID
	Revenue int64    // Q6
	Q12     []Q12Row // Q12
	Q21     []Q21Row // Q21
	Q1      []Q1Row  // extension query Q1
}

// Digest folds the result into one value so the simulated run can be compared
// to the reference implementation cheaply.
func (r *Result) Digest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(int64(r.Query))
	mix(r.Revenue)
	for _, g := range r.Q12 {
		mix(g.ShipMode)
		mix(g.HighCount)
		mix(g.LowCount)
	}
	for _, g := range r.Q21 {
		mix(g.SuppKey)
		mix(g.NumWait)
	}
	for _, g := range r.Q1 {
		mix(g.ReturnFlag)
		mix(g.LineStatus)
		mix(g.SumQty)
		mix(g.SumBasePrice)
		mix(g.SumDiscPrice)
		mix(g.Count)
	}
	return h
}

// Run executes the given query on a session.
func Run(q QueryID, s *engine.Session) *Result {
	switch q {
	case Q6:
		return RunQ6(s)
	case Q21:
		return RunQ21(s)
	case Q12:
		return RunQ12(s)
	case Q1:
		return RunQ1(s)
	}
	panic("tpch: unknown query")
}

// RunQ6 computes the forecast revenue change: a single sequential scan of
// lineitem with a conjunctive predicate and one running sum — the paper's
// pure sequential query with "very good spatial locality but poor temporal
// locality".
func RunQ6(s *engine.Session) *Result {
	ctx := executor.NewContext(s)
	li := s.Lookup("lineitem")
	ctx.Setup(li)
	s.LockRelationShared(li)
	defer s.UnlockRelationShared(li)

	var revenue int64
	sumAddr := ctx.AllocPrivate(64)
	cols := []int{LShipDate, LDiscount, LQuantity, LExtendedPrice}
	executor.SeqScan(ctx, li, cols, func(_ storage.TID, v []int64) bool {
		s.P.Work(executor.CostPredicate)
		ship := int32(v[0])
		if ship < q6Lo || ship >= q6Hi {
			return true
		}
		s.P.Work(2 * executor.CostPredicate)
		if v[1] < q6DiscLo || v[1] > q6DiscHi {
			return true
		}
		s.P.Work(executor.CostPredicate)
		if v[2] >= q6Quantity {
			return true
		}
		s.P.Work(executor.CostAggUpdate)
		s.P.Store(sumAddr, 8)
		revenue += v[3] * v[1] / 100
		return true
	})
	return &Result{Query: Q6, Revenue: revenue}
}

// RunQ12 determines whether cheap ship modes delay critical orders: a
// sequential scan of lineitem with, for each qualifying line, an index probe
// into orders — the mixed profile ("characteristics of both the sequential
// scan and the index scan").
func RunQ12(s *engine.Session) *Result {
	ctx := executor.NewContext(s)
	li := s.Lookup("lineitem")
	ord := s.Lookup("orders")
	ctx.Setup(li, ord)
	s.LockRelationShared(li)
	defer s.UnlockRelationShared(li)
	s.LockRelationShared(ord)
	defer s.UnlockRelationShared(ord)

	agg := executor.NewHashAgg(ctx, 64, 2)
	of := executor.NewFetcher(ctx, ord)
	defer of.Close()

	cols := []int{LShipMode, LReceiptDate, LCommitDate, LShipDate, LOrderKey}
	executor.SeqScan(ctx, li, cols, func(_ storage.TID, v []int64) bool {
		s.P.Work(2 * executor.CostPredicate)
		mode := v[0]
		if mode != q12Mode1 && mode != q12Mode2 {
			return true
		}
		receipt, commit, ship := int32(v[1]), int32(v[2]), int32(v[3])
		s.P.Work(3 * executor.CostPredicate)
		if receipt < q12Lo || receipt >= q12Hi || commit >= receipt || ship >= commit {
			return true
		}
		orderKey := v[4]
		executor.IndexLookupEach(ctx, ord, "orders_pk", orderKey, func(tid storage.TID) bool {
			prio := of.Field(tid, OOrderPriority)
			agg.Update(mode, func(slots []int64) {
				if prio <= 1 { // 1-URGENT or 2-HIGH
					slots[0]++
				} else {
					slots[1]++
				}
			})
			return false // order keys are unique
		})
		return true
	})

	res := &Result{Query: Q12}
	agg.Each(func(mode int64, slots []int64) {
		res.Q12 = append(res.Q12, Q12Row{ShipMode: mode, HighCount: slots[0], LowCount: slots[1]})
	})
	return res
}

// RunQ21 finds suppliers who were the sole late supplier of multi-supplier
// orders: the paper's plan — one sequential scan of orders plus five index
// scans per probe group, three of them on lineitem (l1, the EXISTS l2, the
// NOT EXISTS l3) and the others on supplier and nation.
func RunQ21(s *engine.Session) *Result {
	ctx := executor.NewContext(s)
	li := s.Lookup("lineitem")
	ord := s.Lookup("orders")
	sup := s.Lookup("supplier")
	nat := s.Lookup("nation")
	ctx.Setup(li, ord, sup, nat)
	s.LockRelationShared(li)
	defer s.UnlockRelationShared(li)
	s.LockRelationShared(ord)
	defer s.UnlockRelationShared(ord)
	s.LockRelationShared(sup)
	defer s.UnlockRelationShared(sup)
	s.LockRelationShared(nat)
	defer s.UnlockRelationShared(nat)

	agg := executor.NewHashAgg(ctx, 1024, 1)
	lf := executor.NewFetcher(ctx, li)
	defer lf.Close()
	sf := executor.NewFetcher(ctx, sup)
	defer sf.Close()
	nf := executor.NewFetcher(ctx, nat)
	defer nf.Close()

	type line struct {
		supp            int64
		commit, receipt int32
		tid             storage.TID
	}
	var lines []line

	executor.SeqScan(ctx, ord, []int{OOrderKey, OOrderStatus}, func(_ storage.TID, v []int64) bool {
		s.P.Work(executor.CostPredicate)
		if v[1] != StatusF {
			return true
		}
		orderKey := v[0]

		// Index scan 1 (lineitem l1): the order's lines.
		lines = lines[:0]
		executor.IndexLookupEach(ctx, li, "lineitem_orderkey", orderKey, func(tid storage.TID) bool {
			supp := lf.Field(tid, LSuppKey)
			commit := int32(lf.FieldAgain(tid, LCommitDate))
			receipt := int32(lf.FieldAgain(tid, LReceiptDate))
			lines = append(lines, line{supp: supp, commit: commit, receipt: receipt, tid: tid})
			return true
		})

		for _, l1 := range lines {
			s.P.Work(executor.CostPredicate)
			if l1.receipt <= l1.commit {
				continue
			}
			// Index scan on supplier: the candidate's nation.
			var nation int64 = -1
			executor.IndexLookupEach(ctx, sup, "supplier_pk", l1.supp, func(tid storage.TID) bool {
				nation = sf.Field(tid, SNationKey)
				return false
			})
			if nation != Q21Nation {
				continue
			}
			// Index scan on nation (the join to n_name in the real query).
			executor.IndexLookupEach(ctx, nat, "nation_pk", nation, func(tid storage.TID) bool {
				nf.Field(tid, NRegionKey)
				return false
			})

			// Index scan 2 (lineitem l2): EXISTS another supplier on the order.
			exists := false
			executor.IndexLookupEach(ctx, li, "lineitem_orderkey", orderKey, func(tid storage.TID) bool {
				s.P.Work(executor.CostPredicate)
				if lf.Field(tid, LSuppKey) != l1.supp {
					exists = true
					return false
				}
				return true
			})
			if !exists {
				continue
			}
			// Index scan 3 (lineitem l3): NOT EXISTS another late supplier.
			sole := true
			executor.IndexLookupEach(ctx, li, "lineitem_orderkey", orderKey, func(tid storage.TID) bool {
				s.P.Work(2 * executor.CostPredicate)
				supp := lf.Field(tid, LSuppKey)
				if supp == l1.supp {
					return true
				}
				commit := int32(lf.FieldAgain(tid, LCommitDate))
				receipt := int32(lf.FieldAgain(tid, LReceiptDate))
				if receipt > commit {
					sole = false
					return false
				}
				return true
			})
			if !sole {
				continue
			}
			agg.Update(l1.supp, func(slots []int64) { slots[0]++ })
		}
		return true
	})

	items := make([]executor.KV, 0, agg.Len())
	agg.Each(func(k int64, slots []int64) {
		items = append(items, executor.KV{Key: k, Val: slots[0]})
	})
	top := executor.TopN(ctx, items, Q21TopN)

	res := &Result{Query: Q21}
	for _, kv := range top {
		res.Q21 = append(res.Q21, Q21Row{SuppKey: kv.Key, NumWait: kv.Val})
	}
	return res
}
