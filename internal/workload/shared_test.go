package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"dssmem/internal/db/engine"
	"dssmem/internal/db/storage"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

// privateLoad is the Queries program on a database that the run opens and
// bulk-loads for itself instead of reopening the data's shared load.
type privateLoad struct{ *queries }

func (p privateLoad) Load(o Options) (*engine.Database, error) {
	p.results = make([]*tpch.Result, o.Processes)
	db := engine.Open(engineConfig(o))
	tpch.Load(db, o.Data)
	return db, nil
}

// poolSum hashes the used pages of a pool.
func poolSum(p *storage.Pool) [32]byte {
	h := sha256.New()
	for pg := 0; pg < p.Used(); pg++ {
		h.Write(p.PageBytes(pg))
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSharedLoadMatchesPrivateLoad: a query run on a reopen of the data's
// shared load has the same Stats, byte for byte, as the same run on a
// database loaded for it alone, and no run writes the shared pool. The
// matrix runs twice on one Data, so the second pass reopens loads that
// every configuration of the first pass has used: hint bits, lock windows
// or cold-pool residency left behind by an earlier run would show here.
func TestSharedLoadMatchesPrivateLoad(t *testing.T) {
	data := tpch.Generate(0.002, 7)
	var pools []*storage.Pool
	var before [][32]byte
	for _, hdr := range []int{0, 128} {
		p := tpch.Open(data, engineConfig(Options{Data: data, BufHeaderBytes: hdr})).Pool
		pools = append(pools, p)
		before = append(before, poolSum(p))
	}

	type config struct {
		name string
		o    Options
	}
	var configs []config
	for _, spec := range []machine.Spec{machine.VClassSpec(16, 256), machine.OriginSpec(32, 256)} {
		for _, q := range []tpch.QueryID{tpch.Q6, tpch.Q21, tpch.Q12, tpch.Q1} {
			for _, n := range []int{1, 4} {
				for _, cold := range []bool{false, true} {
					for _, hdr := range []int{0, 128} {
						configs = append(configs, config{
							name: fmt.Sprintf("%s-%v-p%d-cold=%v-hdr=%d", spec.Name, q, n, cold, hdr),
							o: Options{Spec: spec, Data: data, Query: q, Processes: n,
								OSTimeScale: 256, ColdRun: cold, BufHeaderBytes: hdr},
						})
					}
				}
			}
		}
	}
	statsJSON := func(t *testing.T, o Options) []byte {
		st, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Each pass runs its configurations concurrently, as MeasureAll's slots
	// do, so concurrent reopens of one load also run under -race.
	want := make([][]byte, len(configs))
	for pass := 0; pass < 2; pass++ {
		t.Run(fmt.Sprintf("pass%d", pass), func(t *testing.T) {
			for i, c := range configs {
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					if pass == 0 {
						o := c.o
						o.Program = privateLoad{&queries{qs: []tpch.QueryID{o.Query}}}
						want[i] = statsJSON(t, o)
					}
					if got := statsJSON(t, c.o); !bytes.Equal(got, want[i]) {
						t.Fatalf("shared-load stats differ from a private load's\n got %s\nwant %s", got, want[i])
					}
				})
			}
		})
	}
	for i, p := range pools {
		if poolSum(p) != before[i] {
			t.Fatalf("query runs wrote the shared pool (layout %d)", i)
		}
	}
}
