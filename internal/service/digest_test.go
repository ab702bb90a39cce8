package service

import (
	"testing"

	"dssmem/internal/experiments"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// TestMeasureDigestGolden pins the cache address of three measurements. A
// changed value means every existing disk cache silently misses (or, worse,
// that two different runs now share an address), so a deliberate change
// must bump rescache's request schema and update these values together.
func TestMeasureDigestGolden(t *testing.T) {
	ms := experiments.Tiny.MemScale
	cases := []struct {
		name  string
		q     tpch.QueryID
		procs int
		opts  workload.Options
		want  string
	}{
		{"vclass-q6-p1", tpch.Q6, 1,
			workload.Options{Spec: machine.VClassSpec(16, ms)},
			"b2564fb7daefcfd6684fba3fa46e519241b2bcb99ce88202b5869c2e3f2b9b34"},
		{"origin-q21-p8-sampled", tpch.Q21, 8,
			workload.Options{Spec: machine.OriginSpec(32, ms), SampleQuanta: 8},
			"7d0cfb81216bfbe126cdfdd07665ed83b6c2241650a7da90ef99d7a116831d59"},
		{"origin-q12-p4-cold-trial1", tpch.Q12, 4,
			workload.Options{Spec: machine.OriginSpec(32, ms), ColdRun: true, Trial: 1},
			"d77a42a656beed70c75e0348b1194a5c36de9954ae0c02945b59520e40d1ca8f"},
	}
	for _, c := range cases {
		if got := MeasureDigest(experiments.Tiny, c.q, c.procs, c.opts); string(got) != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestResponseDigestGolden pins the X-Digest of one figure and one sweep
// response. Neither is stored, but clients key on them, so a change to
// either encoding must be as deliberate as a measurement digest's.
func TestResponseDigestGolden(t *testing.T) {
	fig, err := figureDigest(experiments.Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := "8870a0682e15c1e2fc0fa8c486ed2714f54ee5cade8db74d71967df99cbbb258"; string(fig) != want {
		t.Errorf("figure 2: digest %s, want %s", fig, want)
	}
	sweep, err := sweepDigest(experiments.Tiny, machine.OriginSpec(32, experiments.Tiny.MemScale), tpch.Q21)
	if err != nil {
		t.Fatal(err)
	}
	if want := "0a26d997357ef69960b50e35c64438b68a9b62df39ed6efa72184e64537de5bb"; string(sweep) != want {
		t.Errorf("origin Q21 sweep: digest %s, want %s", sweep, want)
	}
}
