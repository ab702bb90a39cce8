package tpch

import (
	"strings"
	"testing"

	"dssmem/internal/db/dbtest"
	"dssmem/internal/db/engine"
)

const testSF = 0.001 // ~1500 orders, ~6000 lineitems

func testData(t *testing.T) *Data {
	t.Helper()
	return Generate(testSF, 42)
}

func loadDB(t *testing.T, d *Data) *engine.Database {
	t.Helper()
	db := engine.Open(engine.Config{PoolPages: PoolPagesFor(d)})
	Load(db, d)
	return db
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSF, 42)
	b := Generate(testSF, 42)
	if len(a.Lineitem) != len(b.Lineitem) || len(a.Orders) != len(b.Orders) {
		t.Fatal("sizes differ")
	}
	for i := range a.Lineitem {
		if a.Lineitem[i] != b.Lineitem[i] {
			t.Fatalf("lineitem %d differs", i)
		}
	}
	c := Generate(testSF, 43)
	same := true
	for i := range a.Lineitem {
		if i < len(c.Lineitem) && a.Lineitem[i] != c.Lineitem[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateShape(t *testing.T) {
	d := testData(t)
	if len(d.Orders) < 1000 {
		t.Fatalf("orders = %d", len(d.Orders))
	}
	ratio := float64(len(d.Lineitem)) / float64(len(d.Orders))
	if ratio < 3 || ratio > 5 {
		t.Fatalf("lineitems per order = %.2f, want ~4", ratio)
	}
	statuses := map[int32]int{}
	for _, o := range d.Orders {
		statuses[o.OrderStatus]++
	}
	if statuses[StatusF] == 0 || statuses[StatusO] == 0 || statuses[StatusP] == 0 {
		t.Fatalf("status mix: %v", statuses)
	}
	for _, l := range d.Lineitem[:100] {
		if l.ReceiptDate <= l.ShipDate {
			t.Fatal("receipt before ship")
		}
		if l.Discount < 0 || l.Discount > 10 {
			t.Fatal("discount out of range")
		}
	}
}

func TestDateHelper(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Fatal("epoch wrong")
	}
	if Date(1993, 1, 1) != 366 { // 1992 is a leap year
		t.Fatalf("1993-01-01 = %d", Date(1993, 1, 1))
	}
	if Date(1994, 1, 1)-Date(1993, 1, 1) != 365 {
		t.Fatal("1993 length wrong")
	}
}

func TestRawBytesScalesWithSF(t *testing.T) {
	small := Generate(0.001, 1)
	big := Generate(0.002, 1)
	if big.RawBytes() <= small.RawBytes() {
		t.Fatal("RawBytes not monotone in SF")
	}
}

func sessionFor(db *engine.Database) *engine.Session {
	return db.NewSession(&dbtest.FakeProc{}, 0)
}

func TestQ6MatchesReference(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	got := RunQ6(sessionFor(db))
	want := RefQ6(d)
	if got.Revenue != want.Revenue {
		t.Fatalf("Q6 revenue = %d, want %d", got.Revenue, want.Revenue)
	}
	if want.Revenue == 0 {
		t.Fatal("degenerate test: reference revenue is zero")
	}
	if got.Digest() != want.Digest() {
		t.Fatal("digest mismatch")
	}
}

func TestQ12MatchesReference(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	got := RunQ12(sessionFor(db))
	want := RefQ12(d)
	if len(got.Q12) != len(want.Q12) {
		t.Fatalf("groups: got %v want %v", got.Q12, want.Q12)
	}
	for i := range want.Q12 {
		if got.Q12[i] != want.Q12[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got.Q12[i], want.Q12[i])
		}
	}
	if len(want.Q12) == 0 {
		t.Fatal("degenerate test: no Q12 groups")
	}
}

func TestQ21MatchesReference(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	got := RunQ21(sessionFor(db))
	want := RefQ21(d)
	if len(got.Q21) != len(want.Q21) {
		t.Fatalf("rows: got %d want %d", len(got.Q21), len(want.Q21))
	}
	for i := range want.Q21 {
		if got.Q21[i] != want.Q21[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got.Q21[i], want.Q21[i])
		}
	}
	if len(want.Q21) == 0 {
		t.Fatal("degenerate test: empty Q21 result")
	}
}

func TestRunDispatch(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	for _, q := range AllQueries {
		got := Run(q, sessionFor(db))
		want := Ref(q, d)
		if got.Digest() != want.Digest() {
			t.Fatalf("%v: digest mismatch", q)
		}
	}
}

func TestQueryCharges(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	RunQ6(s)
	if p.Loads < uint64(len(d.Lineitem)) {
		t.Fatalf("Q6 charged %d loads for %d rows", p.Loads, len(d.Lineitem))
	}
	if s.Pins == 0 || s.Pins != s.Unpins {
		t.Fatalf("pins=%d unpins=%d", s.Pins, s.Unpins)
	}
}

func TestQ21IsIndexHeavy(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	p6 := &dbtest.FakeProc{}
	RunQ6(db.NewSession(p6, 0))
	p21 := &dbtest.FakeProc{}
	RunQ21(db.NewSession(p21, 1))
	// Q21 does repeated index descents; its loads per lineitem row must far
	// exceed Q6's sequential pass.
	if p21.Loads < p6.Loads {
		t.Fatalf("Q21 loads (%d) should exceed Q6 loads (%d)", p21.Loads, p6.Loads)
	}
}

func TestQueryNamesAndDigestStability(t *testing.T) {
	if Q6.String() != "Q6" || Q21.String() != "Q21" || Q12.String() != "Q12" {
		t.Fatal("names wrong")
	}
	r := Result{Query: Q6, Revenue: 123}
	if r.Digest() != (&Result{Query: Q6, Revenue: 123}).Digest() {
		t.Fatal("digest unstable")
	}
	if r.Digest() == (&Result{Query: Q6, Revenue: 124}).Digest() {
		t.Fatal("digest insensitive")
	}
}

func TestQ1MatchesReference(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	got := RunQ1(sessionFor(db))
	want := RefQ1(d)
	if len(got.Q1) != len(want.Q1) {
		t.Fatalf("groups: got %d want %d", len(got.Q1), len(want.Q1))
	}
	for i := range want.Q1 {
		if got.Q1[i] != want.Q1[i] {
			t.Fatalf("group %d: got %+v want %+v", i, got.Q1[i], want.Q1[i])
		}
	}
	// Q1 should produce the classic 4 populated groups (A/F, N/F, N/O, R/F).
	if len(want.Q1) != 4 {
		t.Fatalf("expected 4 groups, got %d", len(want.Q1))
	}
	if got.Digest() != want.Digest() {
		t.Fatal("digest mismatch")
	}
}

func TestExtendedQueriesDispatch(t *testing.T) {
	d := testData(t)
	db := loadDB(t, d)
	for _, q := range ExtendedQueries {
		got := Run(q, sessionFor(db))
		want := Ref(q, d)
		if got.Digest() != want.Digest() {
			t.Fatalf("%v digest mismatch", q)
		}
	}
	if Q1.String() != "Q1" {
		t.Fatal("Q1 name")
	}
}

func TestQ1GroupInvariants(t *testing.T) {
	d := testData(t)
	r := RefQ1(d)
	var total int64
	for _, g := range r.Q1 {
		if g.Count <= 0 || g.SumQty <= 0 || g.SumBasePrice <= 0 {
			t.Fatalf("degenerate group: %+v", g)
		}
		if g.SumDiscPrice > g.SumBasePrice*100 {
			t.Fatalf("disc price exceeds base: %+v", g)
		}
		total += g.Count
	}
	// Every lineitem with shipdate <= cutoff is counted exactly once.
	var want int64
	for i := range d.Lineitem {
		if d.Lineitem[i].ShipDate <= q1Cutoff {
			want++
		}
	}
	if total != want {
		t.Fatalf("counts: %d want %d", total, want)
	}
}

func TestQueryByName(t *testing.T) {
	for name, want := range map[string]QueryID{
		"": Q6, "Q6": Q6, "q6": Q6,
		"Q21": Q21, "q21": Q21,
		"Q12": Q12, "q12": Q12,
		"Q1": Q1, "q1": Q1,
	} {
		if got, err := QueryByName(name); err != nil || got != want {
			t.Errorf("%q: %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"Q99", "6", "Q6 ", "Q", "q2"} {
		_, err := QueryByName(name)
		if err == nil || !strings.Contains(err.Error(), "unknown query") || !strings.Contains(err.Error(), "(Q6|Q21|Q12|Q1)") {
			t.Errorf("%q: error %v, want an unknown-query error listing the queries", name, err)
		}
	}
}

// Open loads d once per layout and hands out reopens of that load; its
// answers are the reference's, and RefDigest is the reference's digest.
func TestOpenSharesOneLoadPerLayout(t *testing.T) {
	d := testData(t)
	pages := PoolPagesFor(d)
	a := Open(d, engine.Config{PoolPages: pages})
	b := Open(d, engine.Config{PoolPages: pages, BufHeaderBytes: engine.DefaultBufHeaderBytes, ColdPool: true})
	if a == b || a.Pool != b.Pool || a.BufMgrLock == b.BufMgrLock {
		t.Fatal("one layout: want two reopens of one pool, each with its own locks")
	}
	if c := Open(d, engine.Config{PoolPages: pages, BufHeaderBytes: 128}); c.Pool == a.Pool {
		t.Fatal("128-byte buffer headers share the 32-byte layout's pool")
	}
	if e := Open(testData(t), engine.Config{PoolPages: pages}); e.Pool == a.Pool {
		t.Fatal("two Data values share one load")
	}
	for _, q := range []QueryID{Q6, Q21, Q12, Q1} {
		want := Ref(q, d).Digest()
		if got := RefDigest(q, d); got != want {
			t.Fatalf("RefDigest(%v) = %x, want %x", q, got, want)
		}
		if got := Run(q, sessionFor(b)).Digest(); got != want {
			t.Fatalf("%v on a reopened load: digest %x, want %x", q, got, want)
		}
	}
}
