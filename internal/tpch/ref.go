package tpch

import "sort"

// This file holds brute-force reference implementations of the three queries,
// computed directly over the generated rows. Tests compare the DBMS results
// against these, so the simulator's timing instrumentation can never silently
// corrupt query semantics.

// RefQ6 computes Q6 over the raw data.
func RefQ6(d *Data) *Result {
	var revenue int64
	for i := range d.Lineitem {
		l := &d.Lineitem[i]
		if l.ShipDate >= q6Lo && l.ShipDate < q6Hi &&
			l.Discount >= q6DiscLo && l.Discount <= q6DiscHi &&
			l.Quantity < q6Quantity {
			revenue += l.ExtendedPrice * l.Discount / 100
		}
	}
	return &Result{Query: Q6, Revenue: revenue}
}

// RefQ12 computes Q12 over the raw data.
func RefQ12(d *Data) *Result {
	prio := make(map[int64]int32, len(d.Orders))
	for i := range d.Orders {
		prio[d.Orders[i].OrderKey] = d.Orders[i].Priority
	}
	counts := map[int64]*Q12Row{}
	for i := range d.Lineitem {
		l := &d.Lineitem[i]
		mode := int64(l.ShipMode)
		if mode != q12Mode1 && mode != q12Mode2 {
			continue
		}
		if l.ReceiptDate < q12Lo || l.ReceiptDate >= q12Hi ||
			l.CommitDate >= l.ReceiptDate || l.ShipDate >= l.CommitDate {
			continue
		}
		row := counts[mode]
		if row == nil {
			row = &Q12Row{ShipMode: mode}
			counts[mode] = row
		}
		if prio[l.OrderKey] <= 1 {
			row.HighCount++
		} else {
			row.LowCount++
		}
	}
	res := &Result{Query: Q12}
	for _, row := range counts {
		res.Q12 = append(res.Q12, *row)
	}
	sort.Slice(res.Q12, func(i, j int) bool { return res.Q12[i].ShipMode < res.Q12[j].ShipMode })
	return res
}

// RefQ21 computes Q21 over the raw data.
func RefQ21(d *Data) *Result {
	nationOf := make(map[int64]int32, len(d.Suppliers))
	for i := range d.Suppliers {
		nationOf[d.Suppliers[i].SuppKey] = d.Suppliers[i].NationKey
	}
	statusOf := make(map[int64]int32, len(d.Orders))
	for i := range d.Orders {
		statusOf[d.Orders[i].OrderKey] = d.Orders[i].OrderStatus
	}
	byOrder := map[int64][]*LineItem{}
	for i := range d.Lineitem {
		l := &d.Lineitem[i]
		byOrder[l.OrderKey] = append(byOrder[l.OrderKey], l)
	}

	waits := map[int64]int64{}
	for orderKey, lines := range byOrder {
		if statusOf[orderKey] != StatusF {
			continue
		}
		for _, l1 := range lines {
			if l1.ReceiptDate <= l1.CommitDate {
				continue
			}
			if int64(nationOf[l1.SuppKey]) != Q21Nation {
				continue
			}
			exists, sole := false, true
			for _, l2 := range lines {
				if l2.SuppKey != l1.SuppKey {
					exists = true
					if l2.ReceiptDate > l2.CommitDate {
						sole = false
						break
					}
				}
			}
			if exists && sole {
				waits[l1.SuppKey]++
			}
		}
	}

	type kv struct{ k, v int64 }
	items := make([]kv, 0, len(waits))
	for k, v := range waits {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	if len(items) > Q21TopN {
		items = items[:Q21TopN]
	}
	res := &Result{Query: Q21}
	for _, it := range items {
		res.Q21 = append(res.Q21, Q21Row{SuppKey: it.k, NumWait: it.v})
	}
	return res
}

// Ref dispatches to the reference implementation of q.
func Ref(q QueryID, d *Data) *Result {
	switch q {
	case Q6:
		return RefQ6(d)
	case Q21:
		return RefQ21(d)
	case Q12:
		return RefQ12(d)
	case Q1:
		return RefQ1(d)
	}
	panic("tpch: unknown query")
}

// RefDigest is Ref(q, d).Digest(), computed once per query for d.
func RefDigest(q QueryID, d *Data) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	dig, ok := d.refs[q]
	if !ok {
		dig = Ref(q, d).Digest()
		if d.refs == nil {
			d.refs = make(map[QueryID]uint64)
		}
		d.refs[q] = dig
	}
	return dig
}
