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
