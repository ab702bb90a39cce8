package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

// loadProbe runs a Program and records whether the run loaded its database.
type loadProbe struct {
	Program
	loaded bool
}

func (p *loadProbe) Load(o Options) (*engine.Database, error) {
	p.loaded = true
	return p.Program.Load(o)
}

// TestRunContextPreCancelled: a run whose context is already done aborts
// with the cause before it loads its database, let alone simulates.
func TestRunContextPreCancelled(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	o := opts(machine.VClassSpec(16, 256), tpch.Q21, 4)
	probe := &loadProbe{Program: Queries(o.Query)}
	o.Program = probe
	st, err := RunContext(ctx, o)
	if st != nil {
		t.Fatalf("cancelled run returned stats for %d processes", st.Processes)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cause in the chain", err)
	}
	if probe.loaded {
		t.Fatal("the cancelled run loaded its database")
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, opts(machine.OriginSpec(32, 256), tpch.Q21, 8))
		done <- err
	}()
	time.Sleep(3 * time.Millisecond) // let the run get going
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil (already finished) or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// TestRunTrialsMatchesSerialRuns: trial i must produce byte-identical stats
// to a lone Run with Trial=i.
func TestRunTrialsMatchesSerialRuns(t *testing.T) {
	o := opts(machine.VClassSpec(16, 256), tpch.Q6, 2)
	sts, err := RunTrials(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d trials", len(sts))
	}
	for i, st := range sts {
		oi := o
		oi.Trial = i
		ref, err := Run(oi)
		if err != nil {
			t.Fatalf("serial trial %d: %v", i, err)
		}
		got, _ := json.Marshal(st)
		want, _ := json.Marshal(ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d diverges from serial run:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestRunTrialsErrorNamesLowestTrial(t *testing.T) {
	o := opts(machine.VClassSpec(4, 256), tpch.Q6, 9) // 9 procs > 4 CPUs: every trial fails
	_, err := RunTrials(o, 3)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if want := "trial 0:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}
}
