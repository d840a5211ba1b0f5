package kern

import (
	"errors"
	"testing"
)

// blockedReaders spawns n native processes that each msgrcv once from
// queue id, runs the kernel until all of them sleep, and returns them
// with the payload each one receives (filled in as they complete).
func blockedReaders(t *testing.T, k *Kernel, id, n int) ([]*Proc, []string) {
	t.Helper()
	got := make([]string, n)
	procs := make([]*Proc, n)
	for i := range procs {
		i := i
		procs[i] = k.SpawnNative("reader", Cred{}, func(s *Sys) int {
			_, data, e := s.Msgrcv(id, 0, 64)
			if e != 0 {
				return e
			}
			got[i] = string(data)
			return 0
		})
	}
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with every reader asleep", err)
	}
	return procs, got
}

// sendKernel spawns a native process that makes the kernel-side sends
// (kernel state may only change from the scheduler's context) and runs
// the kernel until every process has exited.
func sendKernel(t *testing.T, k *Kernel, id int, payloads ...string) {
	t.Helper()
	k.SpawnNative("writer", Cred{}, func(s *Sys) int {
		for _, pl := range payloads {
			if err := k.MsgSendKernel(id, 1, []byte(pl)); err != nil {
				return 1
			}
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestMsgrcvWakesInSleepOrder: readers asleep on one queue wake in the
// order they slept, so the first to sleep takes the first message.
func TestMsgrcvWakesInSleepOrder(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	_, got := blockedReaders(t, k, id, 3)
	sendKernel(t, k, id, "a", "b", "c")
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("readers got %q, want [a b c] in sleep order", got)
	}
}

// TestKilledSleeperLeavesQueue: a process killed while asleep leaves
// its wait queue, and the next wakeup passes over it to the others, in
// their sleep order.
func TestKilledSleeperLeavesQueue(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	procs, got := blockedReaders(t, k, id, 3)
	q := k.msgqs[id]
	k.Kill(procs[1], SIGKILL)
	if w := q.readers.waiters; len(w) != 2 || w[0] != procs[0] || w[1] != procs[2] {
		t.Fatalf("waiters after the kill: %v, want the first and third reader", w)
	}
	if procs[1].sleepOn != nil {
		t.Fatal("killed reader still records a wait queue")
	}
	sendKernel(t, k, id, "a", "b")
	if got[0] != "a" || got[1] != "" || got[2] != "b" {
		t.Fatalf("readers got %q, want [a \"\" b]", got)
	}
	if procs[1].KilledBy != SIGKILL || len(q.readers.waiters) != 0 {
		t.Fatalf("killed reader: KilledBy %d, %d waiters left", procs[1].KilledBy, len(q.readers.waiters))
	}
}

// TestFreeMsgqWakesReaderAndWriter: freeing a queue wakes a reader and
// a writer blocked on it, and both retries fail with EINVAL.
func TestFreeMsgqWakesReaderAndWriter(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	var rerr, werr int
	k.SpawnNative("reader", Cred{}, func(s *Sys) int {
		_, _, rerr = s.Msgrcv(id, 2, 64) // only type 1 is ever sent
		return 0
	})
	k.SpawnNative("writer", Cred{}, func(s *Sys) int {
		if e := s.Msgsnd(id, 1, make([]byte, msgqDefaultBytes-8)); e != 0 {
			return 1
		}
		werr = s.Msgsnd(id, 1, make([]byte, 16)) // does not fit: blocks
		return 0
	})
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with reader and writer asleep", err)
	}
	q := k.msgqs[id]
	if len(q.readers.waiters) != 1 || len(q.writers.waiters) != 1 {
		t.Fatalf("%d readers and %d writers asleep, want 1 and 1", len(q.readers.waiters), len(q.writers.waiters))
	}
	k.SpawnNative("freer", Cred{}, func(s *Sys) int {
		k.FreeMsgq(id)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if rerr != EINVAL || werr != EINVAL {
		t.Fatalf("reader errno %d, writer errno %d, want EINVAL for both", rerr, werr)
	}
}

// TestMsgRTokenOfFreedQueueNeverWakes: a kernel-context consumer that
// blocks on MsgRToken of a queue that no longer exists sleeps until
// killed; traffic on other queues never wakes it.
func TestMsgRTokenOfFreedQueueNeverWakes(t *testing.T) {
	k := New()
	const consumeNo = 396
	id := k.AllocMsgq()
	tries := 0
	k.RegisterSyscall(consumeNo, "test_consume", func(k *Kernel, _ *Proc, _ []uint32) Sysret {
		tries++
		var b [4]byte
		if _, ok := k.MsgRecvKernel(id, 0, b[:]); !ok {
			return Sysret{BlockOn: k.MsgRToken(id)}
		}
		return Sysret{}
	})
	consumer := k.SpawnStepper("consumer", Cred{}, stepFunc(func(*Sys, uint32, int) (Syscall, bool, int) {
		if tries == 0 {
			return Syscall{No: consumeNo}, false, 0
		}
		return Syscall{}, true, 0 // the consume completed
	}))
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the consumer asleep", err)
	}
	// The free wakes the consumer once; its retry finds no queue and
	// must sleep again rather than complete.
	k.SpawnNative("freer", Cred{}, func(s *Sys) int {
		k.FreeMsgq(id)
		if err := k.MsgSendKernel(k.AllocMsgq(), 1, []byte("x")); err != nil {
			return 1
		}
		return 0
	})
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the consumer still asleep", err)
	}
	if tries != 2 || consumer.State != StateSleeping {
		t.Fatalf("consumer tried %d times and is %v, want 2 tries and asleep", tries, consumer.State)
	}
	k.Kill(consumer, SIGKILL)
}

// TestMsgBufferReuse: a queue refills the buffers of delivered
// messages, and neither a received payload nor a message still queued
// ever sees the reuse.
func TestMsgBufferReuse(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	send := func(pl string) {
		if err := k.MsgSendKernel(id, 1, []byte(pl)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() string {
		var b [16]byte
		n, ok := k.MsgRecvKernel(id, 0, b[:])
		if !ok {
			t.Fatal("no message queued")
		}
		return string(b[:n])
	}
	send("first")
	send("second")
	var first [16]byte
	n, ok := k.MsgRecvKernel(id, 0, first[:])
	send("THIRD") // refills the buffer "first" arrived in
	if !ok || string(first[:n]) != "first" {
		t.Fatalf("received payload became %q", first[:n])
	}
	if got := recv(); got != "second" {
		t.Fatalf("queued message reads %q after a later send, want second", got)
	}
	if got := recv(); got != "THIRD" {
		t.Fatalf("got %q, want THIRD", got)
	}
	warm := []byte("warm")
	var b [16]byte
	if n := testing.AllocsPerRun(100, func() {
		if err := k.MsgSendKernel(id, 1, warm); err != nil {
			t.Fatal(err)
		}
		k.MsgRecvKernel(id, 0, b[:])
	}); n != 0 {
		t.Fatalf("warm send and receive: %v allocs, want 0", n)
	}
}
