package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/kern"
	"repro/internal/modcrypt"
	"repro/internal/obj"
	"repro/internal/vm"
)

// Test scaffolding ---------------------------------------------------------

const testClientName = "testclient"

// allowPolicy grants testclient session (and call) access.
const allowPolicy = `authorizer: "POLICY"
licensees: "testclient"
conditions: app_domain == "secmodule" -> "allow";
`

func newSMod(t testing.TB) (*kern.Kernel, *SMod) {
	t.Helper()
	k := kern.New()
	return k, Attach(k)
}

func registerLibc(t testing.TB, sm *SMod, mutate func(*ModuleSpec)) *Module {
	t.Helper()
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	spec := &ModuleSpec{
		Name:      "libc",
		Version:   1,
		Owner:     "owner",
		Lib:       lib,
		PolicySrc: []string{allowPolicy},
	}
	if mutate != nil {
		mutate(spec)
	}
	m, err := sm.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func clientCred() kern.Cred { return kern.Cred{UID: 100, Name: testClientName} }

// buildClient links mainSrc against the libc stubs with a generated crt0.
func buildClient(t *testing.T, mainSrc string) *obj.Image {
	t.Helper()
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	mainObj, err := asm.Assemble("main.s", mainSrc)
	if err != nil {
		t.Fatal(err)
	}
	im, err := LinkClient([]*obj.Object{mainObj},
		[]ClientModule{{Name: "libc", Version: 1}},
		[]*obj.Archive{lib})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// runClient spawns the image and runs the kernel to completion.
func runClient(t *testing.T, k *kern.Kernel, im *obj.Image) *kern.Proc {
	t.Helper()
	p, err := k.Spawn("client", clientCred(), im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200_000_000); err != nil {
		t.Fatalf("run: %v (console: %q)", err, k.Console)
	}
	return p
}

const incrMain = `
.text
.global main
main:
	ENTER 0
	PUSHI 41
	CALL incr
	ADDSP 4
	LEAVE
	RET
`

// End-to-end paths ---------------------------------------------------------

func TestEndToEndIncrCall(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	p := runClient(t, k, buildClient(t, incrMain))
	if p.ExitStatus != 42 {
		t.Fatalf("exit = %d, want 42 (incr(41) through SecModule)", p.ExitStatus)
	}
	if sm.Calls != 1 {
		t.Fatalf("smod calls = %d, want 1", sm.Calls)
	}
}

func TestEndToEndGetpidThroughModule(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// Exit with getpid() as served by the module: must be the CLIENT's
	// pid even though the body runs in the handle (section 4.3).
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 0
	CALL getpid
	LEAVE
	RET
`))
	if p.ExitStatus != p.PID {
		t.Fatalf("getpid via module = %d, want client pid %d", p.ExitStatus, p.PID)
	}
	_ = sm
}

func TestEndToEndMallocOnSharedHeap(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// malloc(64) runs in the handle, grows the client's heap through
	// the shared obreak path; the client writes and reads the block.
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 4
	PUSHI 64
	CALL malloc
	ADDSP 4
	PUSHRV
	JZ fail
	PUSHRV
	STOREFP -4
	PUSHI 123
	LOADFP -4
	STORE
	LOADFP -4
	LOAD
	SETRV
	LEAVE
	RET
fail:
	PUSHI 0
	SETRV
	LEAVE
	RET
`))
	if p.ExitStatus != 123 {
		t.Fatalf("exit = %d, want 123 (write through malloc'd block)", p.ExitStatus)
	}
	_ = sm
}

func TestMallocDistinctBlocks(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// Two allocations must not overlap: write different values, check
	// the first survives. Exits with mem[a].
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 8
	PUSHI 16
	CALL malloc
	ADDSP 4
	PUSHRV
	STOREFP -4
	PUSHI 16
	CALL malloc
	ADDSP 4
	PUSHRV
	STOREFP -8
	; a == b would be an allocator bug; write markers
	PUSHI 7
	LOADFP -4
	STORE
	PUSHI 9
	LOADFP -8
	STORE
	LOADFP -4
	LOAD
	SETRV
	LEAVE
	RET
`))
	if p.ExitStatus != 7 {
		t.Fatalf("exit = %d, want 7 (blocks overlap?)", p.ExitStatus)
	}
	_ = sm
}

func TestCallsAreRepeatable(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// Loop incr 10 times starting from 0; expect 10.
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 8
	PUSHI 0
	STOREFP -4
	PUSHI 0
	STOREFP -8
loop:
	LOADFP -8
	PUSHI 10
	GEU
	JNZ done
	LOADFP -4
	CALL incr
	ADDSP 4
	PUSHRV
	STOREFP -4
	LOADFP -8
	PUSHI 1
	ADD
	STOREFP -8
	JMP loop
done:
	LOADFP -4
	SETRV
	LEAVE
	RET
`))
	if p.ExitStatus != 10 {
		t.Fatalf("exit = %d, want 10", p.ExitStatus)
	}
	if sm.Calls != 10 {
		t.Fatalf("smod calls = %d, want 10", sm.Calls)
	}
}

// Security invariants ------------------------------------------------------

func TestClientCannotTouchModuleText(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// After attaching, read module text directly: must die with SIGSEGV
	// and, being a SecModule client, must not be able to jump there.
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 0
	PUSHI 0xA0000000
	LOAD
	SETRV
	LEAVE
	RET
`))
	if p.KilledBy != kern.SIGSEGV {
		t.Fatalf("client read module text and survived (exit=%d killed=%d)",
			p.ExitStatus, p.KilledBy)
	}
}

func TestClientCannotTouchSecretSegment(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 0
	PUSHI 0x90000000
	LOAD
	SETRV
	LEAVE
	RET
`))
	if p.KilledBy != kern.SIGSEGV {
		t.Fatalf("client read the handle's secret segment (exit=%d)", p.ExitStatus)
	}
	_ = sm
}

func TestAddressSpaceInvariants(t *testing.T) {
	k, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	// The client makes one call, then yields forever so the session
	// stays alive while we inspect it.
	im := buildClient(t, `
.text
.global main
main:
	ENTER 0
	PUSHI 41
	CALL incr
	ADDSP 4
spin:
	TRAP 298
	JMP spin
`)
	client, err := k.Spawn("client", clientCred(), im)
	if err != nil {
		t.Fatal(err)
	}
	// Run until the session is attached and one call completed.
	if err := k.RunUntil(func() bool { return sm.Calls >= 1 }, 200_000_000); err != nil {
		t.Fatal(err)
	}
	s := sm.SessionFor(client.PID, m.ID)
	if s == nil {
		t.Fatal("no session")
	}
	handle := s.Handle

	// Invariant 1: client has no mapping of module text.
	if client.Space.FindEntry(HandleTextBase) != nil {
		t.Error("client maps module text")
	}
	// Invariant 2: client has no mapping of the secret segment.
	if client.Space.FindEntry(kern.SecretBase) != nil {
		t.Error("client maps the secret segment")
	}
	// Handle does map both.
	if handle.Space.FindEntry(HandleTextBase) == nil {
		t.Error("handle lacks module text")
	}
	if handle.Space.FindEntry(kern.SecretBase) == nil {
		t.Error("handle lacks the secret segment")
	}
	// Invariant 3: data/stack pages are physically shared.
	for _, addr := range []uint32{kern.UserDataBase, kern.UserStackTop - 4096} {
		// Touch via the client to materialize, then compare frames.
		if _, err := client.Space.Fault(addr, vm.AccessRead); err != nil {
			t.Fatalf("client fault at %#x: %v", addr, err)
		}
		if _, err := handle.Space.Fault(addr, vm.AccessRead); err != nil {
			t.Fatalf("handle fault at %#x: %v", addr, err)
		}
		if !vm.SharesPageWith(client.Space, handle.Space, addr) {
			t.Errorf("page at %#x not shared", addr)
		}
	}
	// Invariant 4: handle is unptraceable and dumps no core.
	if !handle.NoTrace || !handle.NoCoreDump || !handle.IsHandle {
		t.Error("handle protection flags not set")
	}
	// Invariant 7: one handle per client.
	if handle.Pair != client || client.Pair != handle {
		t.Error("pair links broken")
	}
	k.Kill(client, kern.SIGKILL)
	if err := k.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestClientExitKillsHandle(t *testing.T) {
	k, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	client, err := k.Spawn("client", clientCred(), buildClient(t, incrMain))
	if err != nil {
		t.Fatal(err)
	}
	var handle *kern.Proc
	if err := k.RunUntil(func() bool {
		if s := sm.SessionFor(client.PID, m.ID); s != nil {
			handle = s.Handle
			return true
		}
		return false
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if handle.State != kern.StateZombie && handle.State != kern.StateDead {
		t.Fatalf("handle state = %v after client exit", handle.State)
	}
	if len(sm.SessionsOf(client.PID)) != 0 {
		t.Fatal("session survived client exit")
	}
}

func TestHandleNeverDumpsCoreOnBadCall(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	// Exited procs are reaped out of the process table, so the
	// core-dump check below needs handle PIDs recorded at exit time.
	handlePIDs := k.RecordHandleExits()
	// Call memset with a hostile pointer: the handle faults executing
	// the module body. It must die without a core image, and the
	// orphaned client must be killed.
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 0
	PUSHI 4
	PUSHI 0
	PUSHI 0xE0000000
	CALL memset
	ADDSP 12
	LEAVE
	RET
`))
	if dumps := k.HandleCoreDumps(handlePIDs); len(dumps) > 0 {
		t.Fatalf("handle dumped core: %v", dumps)
	}
	if p.KilledBy != kern.SIGKILL {
		t.Fatalf("orphaned client not killed (killedBy=%d)", p.KilledBy)
	}
}

// Policy -------------------------------------------------------------------

func TestPolicyDeniesUnlistedClient(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	im := buildClient(t, incrMain)
	p, err := k.Spawn("mallory", kern.Cred{UID: 666, Name: "mallory"}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != kern.EACCES {
		t.Fatalf("exit = %d, want EACCES from crt0", p.ExitStatus)
	}
	if sm.SessionsOpened != 0 {
		t.Fatal("session opened despite policy denial")
	}
}

func TestSignedCredentialGrantsDelegatedAccess(t *testing.T) {
	k, sm := newSMod(t)
	// Policy trusts only the owner; the owner delegates to carol via a
	// signed credential carried by the client.
	sm.PolicyKeys.AddPrincipal("owner", []byte("owner-secret"))
	registerLibc(t, sm, func(spec *ModuleSpec) {
		spec.PolicySrc = []string{`authorizer: "POLICY"
licensees: "owner"
`}
	})
	cred, err := sm.PolicyKeys.SignAssertion(`authorizer: "owner"
licensees: "carol"
conditions: app_domain == "secmodule" && module == "libc" -> "allow";
`)
	if err != nil {
		t.Fatal(err)
	}

	var got uint32
	var attachErr error
	client := k.SpawnNative("carol", kern.Cred{UID: 7, Name: "carol"}, func(s *kern.Sys) int {
		c, err := AttachNative(s, "libc", 1, cred)
		if err != nil {
			attachErr = err
			return 1
		}
		got = c.MustCall(uint32(mustFuncID(t, sm, "incr")), 41)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if attachErr != nil {
		t.Fatal(attachErr)
	}
	if got != 42 {
		t.Fatalf("incr = %d, want 42", got)
	}
}

func TestForgedCredentialRejected(t *testing.T) {
	k, sm := newSMod(t)
	sm.PolicyKeys.AddPrincipal("owner", []byte("owner-secret"))
	registerLibc(t, sm, func(spec *ModuleSpec) {
		spec.PolicySrc = []string{`authorizer: "POLICY"
licensees: "owner"
`}
	})
	forged := `authorizer: "owner"
licensees: "mallory"
signature: "hmac-sha256:deadbeef"
`
	var attachErr error
	client := k.SpawnNative("mallory", kern.Cred{Name: "mallory"}, func(s *kern.Sys) int {
		_, attachErr = AttachNative(s, "libc", 1, forged)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if attachErr == nil || !strings.Contains(attachErr.Error(), "errno 13") {
		t.Fatalf("forged credential: err = %v, want EACCES", attachErr)
	}
}

func TestPerCallPolicyCheck(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, func(spec *ModuleSpec) { spec.CheckPerCall = true })
	checksBefore := sm.PolicyChecks
	p := runClient(t, k, buildClient(t, incrMain))
	if p.ExitStatus != 42 {
		t.Fatalf("exit = %d", p.ExitStatus)
	}
	// One check for the session plus one for the call.
	if got := sm.PolicyChecks - checksBefore; got < 2 {
		t.Fatalf("policy checks = %d, want >= 2 with CheckPerCall", got)
	}
}

// Figure 4 interfaces ------------------------------------------------------

func TestSyscallTableMatchesFigure4(t *testing.T) {
	k, _ := newSMod(t)
	want := map[uint32]string{
		301: "smod_find",
		303: "smod_session_info",
		304: "smod_handle_info",
		305: "smod_add",
		306: "smod_remove",
		307: "smod_call",
		320: "smod_start_session",
	}
	for no, name := range want {
		if got := k.SyscallName(no); got != name {
			t.Errorf("syscall %d = %q, want %q", no, got, name)
		}
	}
}

func TestSysAddRegistersFromUserland(t *testing.T) {
	k, sm := newSMod(t)
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	spec := &ModuleSpec{Name: "libc", Version: 3, Owner: "owner", Lib: lib,
		PolicySrc: []string{allowPolicy}}
	blob, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var mid uint32
	var errno int
	client := k.SpawnNative("registrar", clientCred(), func(s *kern.Sys) int {
		addr := s.StageBytes(blob)
		mid, errno = s.Call(SysAddNo, addr, uint32(len(blob)))
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatalf("smod_add errno = %d", errno)
	}
	if sm.Module(int(mid)) == nil || sm.Find("libc", 3) != int(mid) {
		t.Fatal("module not registered via smod_add")
	}
}

func TestSysRemoveRequiresOwnerCredential(t *testing.T) {
	k, sm := newSMod(t)
	sm.PolicyKeys.AddPrincipal("owner", []byte("owner-secret"))
	m := registerLibc(t, sm, nil)
	goodCred, err := sm.PolicyKeys.SignAssertion(`authorizer: "owner"
licensees: "admin"
conditions: operation == "remove" && module == "libc" -> "allow";
`)
	if err != nil {
		t.Fatal(err)
	}
	var denyErrno, okErrno int
	client := k.SpawnNative("admin", kern.Cred{Name: "admin"}, func(s *kern.Sys) int {
		bad := s.StageBytes([]byte("authorizer: \"owner\"\nlicensees: \"admin\"\n"))
		_, denyErrno = s.Call(SysRemoveNo, uint32(m.ID), bad, 40)
		good := s.StageBytes([]byte(goodCred))
		_, okErrno = s.Call(SysRemoveNo, uint32(m.ID), good, uint32(len(goodCred)))
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if denyErrno != kern.EACCES {
		t.Fatalf("unsigned removal: errno = %d, want EACCES", denyErrno)
	}
	if okErrno != 0 {
		t.Fatalf("owner removal: errno = %d, want 0", okErrno)
	}
	if sm.Find("libc", 1) != 0 {
		t.Fatal("module still registered after remove")
	}
}

func TestFindUnknownModule(t *testing.T) {
	k, _ := newSMod(t)
	var errno int
	client := k.SpawnNative("c", clientCred(), func(s *kern.Sys) int {
		addr := s.StageString("nosuch")
		_, errno = s.Call(SysFindNo, addr, 1)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if errno != kern.ENOENT {
		t.Fatalf("errno = %d, want ENOENT", errno)
	}
}

// Encryption path ----------------------------------------------------------

func TestEncryptedModuleEndToEnd(t *testing.T) {
	k, sm := newSMod(t)
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	plainText := append([]byte(nil), lib.Members[0].Text...)
	enc, err := modcrypt.EncryptArchive(sm.ModKeys, lib, "libc-key", []byte("very secret key"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sm.Register(&ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: enc,
		PolicySrc: []string{allowPolicy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Encrypted {
		t.Fatal("module not marked encrypted")
	}
	p := runClient(t, k, buildClient(t, incrMain))
	if p.ExitStatus != 42 {
		t.Fatalf("exit = %d, want 42 through the encrypted module", p.ExitStatus)
	}
	// The registry image must still be ciphertext (decryption happens
	// per-session into handle text only).
	if stringsContains(m.Image.Text, plainText[:64]) {
		t.Fatal("registry image holds plaintext")
	}
}

func stringsContains(hay, needle []byte) bool {
	return strings.Contains(string(hay), string(needle))
}

// Fork / exec behaviour (section 4.3) --------------------------------------

func TestForkGivesChildItsOwnHandle(t *testing.T) {
	k, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	// Parent attaches, forks; both parent and child call incr and exit
	// with the results; the parent waits for the child and adds the
	// statuses: incr(10)=11 (child) + incr(20)=21 (parent) = 32... the
	// parent exits with 21 + 11 = 32 via wait status.
	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 4
	TRAP 2
	PUSHRV
	JZ child
	; parent: wait for the child, sum statuses
	PUSHI status
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI 20
	CALL incr
	ADDSP 4
	PUSHRV
	PUSHI status
	LOAD
	ADD
	SETRV
	LEAVE
	RET
child:
	PUSHI 10
	CALL incr
	ADDSP 4
	PUSHRV
	TRAP 1
.data
status: .word 0
`))
	if p.ExitStatus != 32 {
		t.Fatalf("exit = %d, want 32 (21 parent + 11 child)", p.ExitStatus)
	}
	// Two distinct handles must have existed (sessions opened twice).
	if sm.SessionsOpened != 2 {
		t.Fatalf("sessions opened = %d, want 2 (parent + forked child)", sm.SessionsOpened)
	}
	_ = m
}

func TestExecveDetachesSession(t *testing.T) {
	k, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	// The exec'd program is a plain non-SecModule binary.
	plain, err := asm.Assemble("plain.s", `
.text
.global _start
_start:
	PUSHI 55
	TRAP 1
`)
	if err != nil {
		t.Fatal(err)
	}
	plainIm, err := obj.Link(obj.LinkOptions{TextBase: kern.UserTextBase,
		DataBase: kern.UserDataBase}, []*obj.Object{plain})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram("/bin/plain", plainIm)

	p := runClient(t, k, buildClient(t, `
.text
.global main
main:
	ENTER 0
	PUSHI 1
	CALL incr
	ADDSP 4
	PUSHI 0
	PUSHI 0
	PUSHI path
	TRAP 59
	; if exec failed:
	PUSHI 99
	SETRV
	LEAVE
	RET
.data
path: .asciz "/bin/plain"
`))
	if p.ExitStatus != 55 {
		t.Fatalf("exit = %d, want 55 from the exec'd image", p.ExitStatus)
	}
	if n := len(sm.SessionsOf(p.PID)); n != 0 {
		t.Fatalf("%d sessions survive execve", n)
	}
	_ = m
}

// Concurrency of sessions --------------------------------------------------

func TestTwoClientsGetTwoHandles(t *testing.T) {
	k, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	fid := mustFuncID(t, sm, "incr")
	results := make([]uint32, 2)
	mk := func(i int) *kern.Proc {
		return k.SpawnNative("c", clientCred(), func(s *kern.Sys) int {
			c, err := AttachNative(s, "libc", 1, "")
			if err != nil {
				return 1
			}
			results[i] = c.MustCall(uint32(fid), uint32(i*100))
			return 0
		})
	}
	c0, c1 := mk(0), mk(1)
	if err := k.RunUntil(func() bool {
		done := func(p *kern.Proc) bool {
			return p.State == kern.StateZombie || p.State == kern.StateDead
		}
		return done(c0) && done(c1)
	}, 400_000_000); err != nil {
		t.Fatal(err)
	}
	if results[0] != 1 || results[1] != 101 {
		t.Fatalf("results = %v", results)
	}
	if sm.SessionsOpened != 2 {
		t.Fatalf("sessions = %d, want 2 (one handle per client)", sm.SessionsOpened)
	}
	s0 := sm.SessionFor(c0.PID, m.ID)
	s1 := sm.SessionFor(c1.PID, m.ID)
	// Sessions are torn down at exit; fetch from history via handles:
	if s0 != nil || s1 != nil {
		t.Fatal("sessions not torn down after client exit")
	}
}

func mustFuncID(t testing.TB, sm *SMod, name string) int {
	t.Helper()
	for _, m := range sm.modules {
		if id, ok := m.FuncID(name); ok {
			return id
		}
	}
	t.Fatalf("no module exports %q", name)
	return -1
}

// Stub and crt0 generation (Figure 5 golden shapes) ------------------------

func TestStubSourceShape(t *testing.T) {
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	src := StubSource("libc", lib)
	for _, want := range []string{
		".global incr", ".global malloc", ".global getpid",
		"TRAP 307", "__smod_mid_libc", "ADDSP 8",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("stub source lacks %q", want)
		}
	}
	// funcIDs are assigned in sorted symbol order; incr's id must match
	// what the registry computes.
	funcs := lib.FuncSymbols()
	for i, f := range funcs {
		if f == "incr" {
			if !strings.Contains(src, "PUSHI "+itoa(i)) {
				t.Errorf("stub for incr does not push funcID %d", i)
			}
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestCRT0SourceShape(t *testing.T) {
	src := CRT0Source([]ClientModule{{Name: "libc", Version: 1, Credential: "CRED"}})
	for _, want := range []string{
		"TRAP 301", "TRAP 320", "TRAP 304", "CALL main",
		"__smod_desc_libc", "__smod_name_libc", "smod_fail",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("crt0 source lacks %q", want)
		}
	}
}

func TestReceiveStubAssembles(t *testing.T) {
	if _, err := asm.Assemble("recv.s", receiveStubSource()); err != nil {
		t.Fatalf("receive stub does not assemble: %v", err)
	}
	src := receiveStubSource()
	for _, want := range []string{"TRAP 303", "SETSP", "CALLI", "JMP recv_loop"} {
		if !strings.Contains(src, want) {
			t.Errorf("receive stub lacks %q", want)
		}
	}
}

// Registration validation --------------------------------------------------

func TestRegisterRejectsDuplicates(t *testing.T) {
	_, sm := newSMod(t)
	registerLibc(t, sm, nil)
	lib, _ := LibCArchive()
	_, err := sm.Register(&ModuleSpec{Name: "libc", Version: 1, Lib: lib,
		PolicySrc: []string{allowPolicy}})
	if err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegisterRejectsEmptyModule(t *testing.T) {
	_, sm := newSMod(t)
	if _, err := sm.Register(&ModuleSpec{Name: "x", Version: 1,
		Lib: &obj.Archive{}}); err == nil {
		t.Fatal("empty module accepted")
	}
}

func TestRegisterRejectsBadPolicy(t *testing.T) {
	_, sm := newSMod(t)
	lib, _ := LibCArchive()
	if _, err := sm.Register(&ModuleSpec{Name: "x", Version: 1, Lib: lib,
		PolicySrc: []string{"not a policy"}}); err == nil {
		t.Fatal("unparseable policy accepted")
	}
}

func TestRegisterRejectsEncryptedWithoutKey(t *testing.T) {
	_, sm := newSMod(t)
	lib, _ := LibCArchive()
	foreign := modcrypt.NewKeystore()
	enc, err := modcrypt.EncryptArchive(foreign, lib, "alien-key", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Register(&ModuleSpec{Name: "x", Version: 1, Lib: enc,
		PolicySrc: []string{allowPolicy}}); err == nil {
		t.Fatal("encrypted module registered without its key")
	}
}

func TestModuleSpecJSONRoundTrip(t *testing.T) {
	lib, _ := LibCArchive()
	in := &ModuleSpec{Name: "m", Version: 2, Owner: "o", Lib: lib,
		PolicySrc: []string{allowPolicy}, CheckPerCall: true}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalModuleSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "m" || out.Version != 2 || !out.CheckPerCall ||
		len(out.Lib.Members) != len(lib.Members) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestNativeClientViaPolicy(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	fidIncr := mustFuncID(t, sm, "incr")
	var v1, v2 uint32
	client := k.SpawnNative("nc", clientCred(), func(s *kern.Sys) int {
		c, err := AttachNative(s, "libc", 1, "")
		if err != nil {
			return 1
		}
		v1 = c.MustCall(uint32(fidIncr), 1)
		v2 = c.MustCall(uint32(fidIncr), v1)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if client.ExitStatus != 0 || v1 != 2 || v2 != 3 {
		t.Fatalf("exit=%d v1=%d v2=%d", client.ExitStatus, v1, v2)
	}
}

// TestNativeSessionsFreeTheirFrames: a finished session returns every
// physical frame it took. The client's stack and heap are force-shared
// with its handle, so those frames must go when the second of the pair
// exits, not leak with the shared mappings.
func TestNativeSessionsFreeTheirFrames(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	fidIncr := uint32(mustFuncID(t, sm, "incr"))
	frames0 := k.Phys.InUse()
	for i := 0; i < 50; i++ {
		var v uint32
		client := k.SpawnNative("nc", clientCred(), func(s *kern.Sys) int {
			c, err := AttachNative(s, "libc", 1, "")
			if err != nil {
				return 1
			}
			v = c.MustCall(fidIncr, uint32(i))
			return 0
		})
		if err := k.RunUntil(func() bool {
			return client.State == kern.StateZombie || client.State == kern.StateDead
		}, 200_000_000); err != nil {
			t.Fatal(err)
		}
		if client.ExitStatus != 0 || v != uint32(i)+1 {
			t.Fatalf("session %d: exit=%d v=%d", i, client.ExitStatus, v)
		}
	}
	if got := k.Phys.InUse(); got != frames0 {
		t.Fatalf("50 finished sessions hold %d frames, want 0", int64(got)-int64(frames0))
	}
}
