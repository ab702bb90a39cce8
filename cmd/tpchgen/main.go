// Command tpchgen generates the TPC-H subset used by the study and dumps a
// table as CSV, like a miniature dbgen.
//
// Usage:
//
//	tpchgen [-sf 0.01] [-seed 7] [-table lineitem|orders|supplier|nation] [-limit N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"

	"dssmem"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor (1.0 = 1.5M orders)")
	seed := flag.Uint64("seed", 7, "generator seed")
	table := flag.String("table", "lineitem", "table to dump: lineitem, orders, supplier, nation, or summary")
	limit := flag.Int("limit", 0, "max rows to dump (0 = all)")
	flag.Parse()
	usage := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "tpchgen: "+format+"\n", a...)
		os.Exit(1)
	}
	// Every argument is checked before the data is generated.
	switch {
	case flag.NArg() > 0:
		usage("unexpected argument %q (flags only; a boolean flag takes -name=value)", flag.Arg(0))
	case !(*sf > 0):
		usage("bad -sf %g: scale factor must be positive", *sf)
	case *limit < 0:
		usage("bad -limit %d (must be at least 0; 0 = all)", *limit)
	case !slices.Contains([]string{"summary", "lineitem", "orders", "supplier", "nation"}, *table):
		usage("unknown table %q", *table)
	}
	d := dssmem.GenerateData(*sf, *seed)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	capped := func(n int) int {
		if *limit > 0 && *limit < n {
			return *limit
		}
		return n
	}

	switch *table {
	case "summary":
		fmt.Fprintf(w, "sf=%g seed=%d\n", *sf, *seed)
		fmt.Fprintf(w, "lineitem: %d rows\norders:   %d rows\nsupplier: %d rows\nnation:   %d rows\n",
			len(d.Lineitem), len(d.Orders), len(d.Suppliers), len(d.Nations))
		fmt.Fprintf(w, "raw bytes: %d (%.2f MB)\n", d.RawBytes(), float64(d.RawBytes())/1e6)
	case "lineitem":
		fmt.Fprintln(w, "l_orderkey,l_suppkey,l_quantity,l_extendedprice,l_discount,l_shipdate,l_commitdate,l_receiptdate,l_shipmode,l_linenumber")
		for _, l := range d.Lineitem[:capped(len(d.Lineitem))] {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				l.OrderKey, l.SuppKey, l.Quantity, l.ExtendedPrice, l.Discount,
				l.ShipDate, l.CommitDate, l.ReceiptDate, l.ShipMode, l.LineNumber)
		}
	case "orders":
		fmt.Fprintln(w, "o_orderkey,o_orderstatus,o_orderdate,o_orderpriority")
		for _, o := range d.Orders[:capped(len(d.Orders))] {
			fmt.Fprintf(w, "%d,%d,%d,%d\n", o.OrderKey, o.OrderStatus, o.OrderDate, o.Priority)
		}
	case "supplier":
		fmt.Fprintln(w, "s_suppkey,s_nationkey")
		for _, s := range d.Suppliers[:capped(len(d.Suppliers))] {
			fmt.Fprintf(w, "%d,%d\n", s.SuppKey, s.NationKey)
		}
	case "nation":
		fmt.Fprintln(w, "n_nationkey,n_regionkey")
		for i, r := range d.Nations[:capped(len(d.Nations))] {
			fmt.Fprintf(w, "%d,%d\n", i, r)
		}
	}
}
