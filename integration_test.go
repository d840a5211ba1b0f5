// Integration scenarios spanning the whole stack: toolchain -> kernel
// -> SecModule -> policy -> measurement. These are the repository's
// end-to-end acceptance tests.
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/measure"
	"repro/internal/modcrypt"
	"repro/internal/obj"
)

const itPolicy = `authorizer: "POLICY"
licensees: "it-user"
conditions: app_domain == "secmodule" -> "allow";
`

func itCred() kern.Cred { return kern.Cred{UID: 7, Name: "it-user"} }

func itSetup(t *testing.T) (*kern.Kernel, *core.SMod, *obj.Archive) {
	t.Helper()
	k := kern.New()
	sm := core.Attach(k)
	lib, err := core.LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	return k, sm, lib
}

func itClient(t *testing.T, lib *obj.Archive, mainSrc string) *obj.Image {
	t.Helper()
	o, err := asm.Assemble("main.s", mainSrc)
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.LinkClient([]*obj.Object{o},
		[]core.ClientModule{{Name: "libc", Version: 1}},
		[]*obj.Archive{lib})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// A SecModule client execs another SecModule client: the first session
// is detached at exec (section 4.3) and the second image's crt0 opens a
// fresh one.
func TestScenarioExecChainReattaches(t *testing.T) {
	k, sm, lib := itSetup(t)
	if _, err := sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{itPolicy},
	}); err != nil {
		t.Fatal(err)
	}

	second := itClient(t, lib, `
.text
.global main
main:
	ENTER 0
	PUSHI 20
	CALL incr
	ADDSP 4
	LEAVE
	RET
`)
	k.RegisterProgram("/bin/second", second)

	first := itClient(t, lib, `
.text
.global main
main:
	ENTER 0
	PUSHI 5
	CALL incr
	ADDSP 4
	PUSHI 0
	PUSHI 0
	PUSHI path
	TRAP 59
	PUSHI 99
	SETRV
	LEAVE
	RET
.data
path: .asciz "/bin/second"
`)
	p, err := k.Spawn("chain", itCred(), first)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 21 {
		t.Fatalf("exit = %d, want 21 (incr(20) in the exec'd client)", p.ExitStatus)
	}
	if sm.SessionsOpened != 2 {
		t.Fatalf("sessions = %d, want 2 (one per image)", sm.SessionsOpened)
	}
	if sm.Calls != 2 {
		t.Fatalf("calls = %d, want 2", sm.Calls)
	}
}

// A fork family: parent + two children, each with its own handle, all
// calling concurrently under round-robin scheduling.
func TestScenarioForkFamily(t *testing.T) {
	k, sm, lib := itSetup(t)
	if _, err := sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{itPolicy},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("family", itCred(), itClient(t, lib, `
.text
.global main
main:
	ENTER 4
	TRAP 2
	PUSHRV
	JZ kid
	TRAP 2
	PUSHRV
	JZ kid
	; parent: reap both, sum their statuses (11 + 11 = 22) with own
	; incr(0) = 1 -> 23
	PUSHI st
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI st
	LOAD
	STOREFP -4
	PUSHI st
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI 0
	CALL incr
	ADDSP 4
	PUSHRV
	LOADFP -4
	ADD
	PUSHI st
	LOAD
	ADD
	SETRV
	LEAVE
	RET
kid:
	PUSHI 10
	CALL incr
	ADDSP 4
	PUSHRV
	TRAP 1
.data
st: .word 0
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(800_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 23 {
		t.Fatalf("exit = %d, want 23", p.ExitStatus)
	}
	if sm.SessionsOpened != 3 {
		t.Fatalf("sessions = %d, want 3 (parent + 2 children)", sm.SessionsOpened)
	}
}

// The licensing scenario end to end, with an encrypted module.
func TestScenarioEncryptedLicensing(t *testing.T) {
	k, sm, lib := itSetup(t)
	sm.PolicyKeys.AddPrincipal("vendor", []byte("it vendor key"))
	enc, err := modcrypt.EncryptArchive(sm.ModKeys, lib, "it-key", []byte("module key"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "vendor", Lib: enc,
		PolicySrc: []string{`authorizer: "POLICY"
licensees: "vendor"
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	license, err := sm.PolicyKeys.SignAssertion(`authorizer: "vendor"
licensees: "it-user"
conditions: module == "libc" -> "allow";
`)
	if err != nil {
		t.Fatal(err)
	}

	fid, _ := m.FuncID("incr")
	var licensed, unlicensed int
	c1 := k.SpawnNative("licensed", itCred(), func(s *kern.Sys) int {
		c, err := core.AttachNative(s, "libc", 1, license)
		if err != nil {
			return 1
		}
		licensed = int(c.MustCall(uint32(fid), 99))
		return 0
	})
	c2 := k.SpawnNative("unlicensed", kern.Cred{Name: "someone-else"}, func(s *kern.Sys) int {
		_, err := core.AttachNative(s, "libc", 1, "")
		if err != nil {
			unlicensed = 1
		}
		return 0
	})
	done := func(p *kern.Proc) bool {
		return p.State == kern.StateZombie || p.State == kern.StateDead
	}
	if err := k.RunUntil(func() bool { return done(c1) && done(c2) }, 800_000_000); err != nil {
		t.Fatal(err)
	}
	if licensed != 100 {
		t.Fatalf("licensed call = %d, want 100", licensed)
	}
	if unlicensed != 1 {
		t.Fatal("unlicensed principal got a session")
	}
}

// Full determinism: the Figure 8 pipeline produces identical tables on
// repeated runs.
func TestScenarioFigure8Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() string {
		rows, err := measure.RunFigure8(measure.Scale{
			GetpidCalls: 2000, SMODCalls: 200, RPCCalls: 50, Trials: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return measure.Figure8Table(rows)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic tables:\n%s\nvs\n%s", a, b)
	}
	for _, row := range []string{"getpid()", "SMOD(SMOD-getpid)", "SMOD(test-incr)", "RPC(test-incr)"} {
		if !strings.Contains(a, row) {
			t.Errorf("table lacks row %q", row)
		}
	}
}

// TestFigure8Golden pins the four Figure 8 means at the default scale,
// the values cmd/smodbench prints: simulated time must not move under a
// change to how the simulator runs.
func TestFigure8Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := measure.RunFigure8(measure.Default())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0.694542", "7.988818", "7.359391", "59.798195"}
	for i, r := range rows {
		if got := fmt.Sprintf("%.6f", r.MeanMicros); got != want[i] {
			t.Errorf("%s: %s us/call, want %s", r.Name, got, want[i])
		}
	}
}

// Policy cost grows monotonically with condition count (section 5).
func TestScenarioPolicyCostMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var last float64
	for _, conds := range []int{1, 8, 32} {
		conds := conds
		src := "authorizer: \"POLICY\"\nlicensees: \"bench\"\nconditions:"
		for i := 0; i < conds-1; i++ {
			src += " module == \"no\" -> \"allow\";"
		}
		src += " app_domain == \"secmodule\" -> \"allow\";\n"
		s, err := measure.RunSMODIncrWithSpec("p", 200, 2, func(sm *core.SMod, spec *core.ModuleSpec) {
			spec.CheckPerCall = true
			spec.PolicySrc = []string{src}
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.MeanMicros <= last {
			t.Fatalf("cost not monotone: %d conds -> %.3f us (prev %.3f)", conds, s.MeanMicros, last)
		}
		last = s.MeanMicros
	}
}

// The toolchain surface used by cmd/smodtool: assemble -> archive ->
// stub source -> crt0 source all compose.
func TestScenarioToolchainSurface(t *testing.T) {
	lib, err := core.LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	stub := core.StubSource("libc", lib)
	if _, err := asm.Assemble("stubs.s", stub); err != nil {
		t.Fatalf("generated stubs do not assemble: %v", err)
	}
	crt0 := core.CRT0Source([]core.ClientModule{{Name: "libc", Version: 1, Credential: "x\ny"}})
	if _, err := asm.Assemble("crt0.s", crt0); err != nil {
		t.Fatalf("generated crt0 does not assemble: %v", err)
	}
	blob, err := lib.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := obj.UnmarshalArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.FuncSymbols()) != len(lib.FuncSymbols()) {
		t.Fatal("archive serialization lost symbols")
	}
}
