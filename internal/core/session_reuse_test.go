package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kern"
	"repro/internal/modcrypt"
)

// TestSessionsOfModuleOrder: a client attached to eight modules, in the
// reverse of their registration, gets its sessions from SessionsOf in
// module-ID order, and its exit tears them down in that order.
func TestSessionsOfModuleOrder(t *testing.T) {
	k, sm := newSMod(t)
	const modules = 8
	for v := 1; v <= modules; v++ {
		registerLibc(t, sm, func(spec *ModuleSpec) { spec.Version = v })
	}
	var teardown []string
	k.OnExit(func(_ *kern.Kernel, p *kern.Proc) {
		if p.IsHandle {
			teardown = append(teardown, p.Name)
		}
	})
	var got []int
	client := runNative(t, k, clientCred(), func(s *kern.Sys) int {
		for v := modules; v >= 1; v-- {
			if _, err := AttachNative(s, "libc", v, ""); err != nil {
				return 1
			}
		}
		for _, sess := range sm.SessionsOf(s.Proc().PID) {
			got = append(got, sess.Module.ID)
		}
		return 0
	})
	if client.ExitStatus != 0 {
		t.Fatalf("client exited %d", client.ExitStatus)
	}
	if len(got) != modules || len(teardown) != modules {
		t.Fatalf("%d sessions, %d handles torn down; want %d of each", len(got), len(teardown), modules)
	}
	for i := range got {
		if want := sm.Find("libc", i+1); got[i] != want {
			t.Fatalf("SessionsOf module IDs %v, want increasing", got)
		}
		if want := fmt.Sprintf("%s-handle[libc.%d]", client.Name, i+1); teardown[i] != want {
			t.Fatalf("handles torn down in order %v, want by module ID", teardown)
		}
	}
}

// TestDecryptedTextKeptPerModule: the first session of an encrypted
// module keeps its decrypted text on the Module, and every later
// session still costs exactly what the first did, AES work included.
func TestDecryptedTextKeptPerModule(t *testing.T) {
	k, sm := newSMod(t)
	lib, err := LibCArchive()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := modcrypt.EncryptArchive(sm.ModKeys, lib, "libc-key", []byte("very secret key"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sm.Register(&ModuleSpec{Name: "libc", Version: 1, Owner: "owner", Lib: enc, PolicySrc: []string{allowPolicy}})
	if err != nil {
		t.Fatal(err)
	}
	fidIncr := uint32(mustFuncID(t, sm, "incr"))
	var costs []uint64
	for i := 0; i < 3; i++ {
		before := k.Clk.Cycles()
		nativeSession(t, k, fidIncr, uint32(i))
		costs = append(costs, k.Clk.Cycles()-before)
		if m.plaintext == nil {
			t.Fatal("no decrypted text kept after a session")
		}
	}
	if costs[1] != costs[0] || costs[2] != costs[0] {
		t.Fatalf("session cycles %v, want every session to cost the first's", costs)
	}
	if len(m.plaintext) != len(m.Image.Text) || string(m.plaintext) == string(m.Image.Text) {
		t.Fatal("kept text is not the decrypted image text")
	}
}

// TestPrepareBoundsArguments: a native call frame holds MaxNativeArgs
// argument words. One more is refused before anything is written, and
// the client goes on calling.
func TestPrepareBoundsArguments(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	fidIncr := uint32(mustFuncID(t, sm, "incr"))
	var full, after uint32
	var fullErrno, overErrno, afterErrno int
	var prepErr error
	client := runNative(t, k, clientCred(), func(s *kern.Sys) int {
		c, err := AttachNative(s, "libc", 1, "")
		if err != nil {
			return 1
		}
		args := make([]uint32, MaxNativeArgs+1)
		args[0] = 9
		full, fullErrno = c.Call(fidIncr, args[:MaxNativeArgs]...)
		sp := s.Proc().CPU.SP
		_, prepErr = c.Prepare(fidIncr, args...)
		if s.Proc().CPU.SP != sp {
			return 2
		}
		_, overErrno = c.Call(fidIncr, args...)
		after, afterErrno = c.Call(fidIncr, 41)
		return 0
	})
	if client.ExitStatus != 0 {
		t.Fatalf("client exited %d", client.ExitStatus)
	}
	if fullErrno != 0 || full != 10 {
		t.Fatalf("call of %d words = (%d, errno %d), want (10, 0)", MaxNativeArgs, full, fullErrno)
	}
	if !errors.Is(prepErr, ErrTooManyArgs) || overErrno != kern.E2BIG {
		t.Fatalf("call of %d words: Prepare error %v, errno %d; want ErrTooManyArgs and E2BIG", MaxNativeArgs+1, prepErr, overErrno)
	}
	if afterErrno != 0 || after != 42 {
		t.Fatalf("next call = (%d, errno %d), want (42, 0)", after, afterErrno)
	}
}
