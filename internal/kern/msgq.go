package kern

import (
	"fmt"
	"slices"
)

// SysV message queues, the client/handle synchronization primitive from
// the paper's section 4.1: "OpenBSD already comes with the proper
// kernel resources in the form of SYSV MSG interface. The msgsnd() and
// msgrcv() functions already contain efficient blocking and awakening
// that we desire for synchronization."
//
// The user-space message layout is {mtype int32, payload...}; msgsz in
// the syscall counts only payload bytes, as in SysV.

// message is one queued message. buf holds it exactly as msgrcv
// copies it out, {mtype int32, payload...}.
type message struct {
	mtype int32
	buf   []byte
}

// MsgQueue is one SysV message queue.
type MsgQueue struct {
	ID  int
	Key int32
	// MaxBytes bounds total queued payload (msg_qbytes); senders block
	// when full.
	MaxBytes int

	msgs  []message
	bytes int
	// readers and writers hold the processes blocked in msgrcv and
	// msgsnd.
	readers, writers WaitQ
	// spare holds the buffers of delivered messages, which later sends
	// fill instead of allocating.
	spare spareBufs
}

// Len reports the number of queued messages.
func (q *MsgQueue) Len() int { return len(q.msgs) }

// msgqDefaultBytes mirrors the OpenBSD MSGMNB default.
const msgqDefaultBytes = 16384

// maxSpareMsgqs bounds a kernel's freed queues kept for reuse.
const maxSpareMsgqs = 64

// spareBufs holds the buffers of delivered messages or datagrams, most
// recently delivered last, for later sends to fill instead of
// allocating (at most maxSpareBufs).
type spareBufs [][]byte

// maxSpareBufs bounds a queue's or a socket's spare buffers.
const maxSpareBufs = 4

// get returns an n-byte buffer, the last spare if it is large enough.
func (sb *spareBufs) get(n int) []byte {
	if i := len(*sb) - 1; i >= 0 && cap((*sb)[i]) >= n {
		b := (*sb)[i][:n]
		(*sb)[i] = nil
		*sb = (*sb)[:i]
		return b
	}
	return make([]byte, n)
}

// put keeps b, whose bytes nothing reads any more, unless the list is
// full.
func (sb *spareBufs) put(b []byte) {
	if len(*sb) < maxSpareBufs {
		*sb = append(*sb, b)
	}
}

// find returns the index of the first message of type mtype (0 = any),
// or -1.
func (q *MsgQueue) find(mtype int32) int {
	for i, m := range q.msgs {
		if mtype == 0 || m.mtype == mtype {
			return i
		}
	}
	return -1
}

// deliver dequeues message i, whose bytes have been copied to their
// receiver, and keeps its buffer as a spare. It returns the payload
// length.
func (q *MsgQueue) deliver(i int) int {
	m := q.msgs[i]
	q.msgs = slices.Delete(q.msgs, i, i+1)
	q.bytes -= len(m.buf) - 4
	q.spare.put(m.buf)
	return len(m.buf) - 4
}

// MsgqByKey returns the queue for key, or nil (inspection helper).
func (k *Kernel) MsgqByKey(key int32) *MsgQueue {
	id, ok := k.msgqKeys[key]
	if !ok {
		return nil
	}
	return k.msgqs[id]
}

// AllocMsgq creates an anonymous kernel-side message queue (no key) and
// returns its id. The SecModule layer allocates the client/handle call
// and return queues this way at session start. The queue is the most
// recently freed one, if any, with its spare buffers.
func (k *Kernel) AllocMsgq() int {
	id := k.nextMsqID
	k.nextMsqID++
	q := popSpare(&k.spareMsgqs)
	q.ID, q.MaxBytes = id, msgqDefaultBytes
	k.msgqs[id] = q
	return id
}

// FreeMsgq destroys a queue, waking anyone blocked on it. Its id is
// never reused, so a woken process retrying on it finds no queue; the
// queue itself, emptied to what AllocMsgq builds, goes to the next
// AllocMsgq with its spare buffers.
func (k *Kernel) FreeMsgq(id int) {
	q := k.msgqs[id]
	if q == nil {
		return
	}
	delete(k.msgqs, id)
	k.Wakeup(&q.readers)
	k.Wakeup(&q.writers)
	clear(q.msgs)
	*q = MsgQueue{msgs: q.msgs[:0], spare: q.spare}
	pushSpare(&k.spareMsgqs, q, maxSpareMsgqs)
}

// MsgSendKernel enqueues a message from kernel context (no user copy),
// charging the queue-management cost and waking blocked readers. It is
// how sys_smod_call relays the dispatch record to the handle.
func (k *Kernel) MsgSendKernel(id int, mtype int32, payload []byte) error {
	q := k.msgqs[id]
	if q == nil {
		return fmt.Errorf("kern: no msgq %d", id)
	}
	buf := q.spare.get(4 + len(payload))
	putLE32(buf, uint32(mtype))
	copy(buf[4:], payload)
	q.msgs = append(q.msgs, message{mtype: mtype, buf: buf})
	q.bytes += len(payload)
	k.Clk.Advance(k.Costs.MsgQOp + uint64(len(payload))*k.Costs.CopyPerByte)
	k.Wakeup(&q.readers)
	return nil
}

// MsgRecvKernel dequeues the first message of type mtype (0 = any) from
// kernel context, copies as much of its payload as fits into dst, and
// returns the payload's length. ok is false when no message is queued.
func (k *Kernel) MsgRecvKernel(id int, mtype int32, dst []byte) (n int, ok bool) {
	q := k.msgqs[id]
	if q == nil {
		return 0, false
	}
	i := q.find(mtype)
	if i < 0 {
		return 0, false
	}
	copy(dst, q.msgs[i].buf[4:])
	n = q.deliver(i)
	k.Clk.Advance(k.Costs.MsgQOp + uint64(n)*k.Costs.CopyPerByte)
	k.Wakeup(&q.writers)
	return n, true
}

// MsgRToken returns the wait queue a kernel-context consumer of queue
// id should block on; sysMsgsnd and MsgSendKernel wake it. For a queue
// that no longer exists it returns a fresh queue nothing wakes.
func (k *Kernel) MsgRToken(id int) *WaitQ {
	if q := k.msgqs[id]; q != nil {
		return &q.readers
	}
	return new(WaitQ)
}

// sysMsgget implements msgget(key, flags): find or create the queue for
// key and return its identifier. IPC_PRIVATE (key 0) always creates.
func sysMsgget(k *Kernel, p *Proc, args []uint32) Sysret {
	key := int32(args[0])
	if key != 0 {
		if id, exists := k.msgqKeys[key]; exists {
			return ok(uint32(id))
		}
	}
	id := k.nextMsqID
	k.nextMsqID++
	q := &MsgQueue{ID: id, Key: key, MaxBytes: msgqDefaultBytes}
	k.msgqs[id] = q
	if key != 0 {
		k.msgqKeys[key] = id
	}
	return ok(uint32(id))
}

// sysMsgsnd implements msgsnd(id, msgp, msgsz, flags). msgp points to
// {mtype int32, payload[msgsz]} in the caller's space.
func sysMsgsnd(k *Kernel, p *Proc, args []uint32) Sysret {
	id, msgp, msgsz := int(args[0]), args[1], int(args[2])
	q := k.msgqs[id]
	if q == nil {
		return fail(EINVAL)
	}
	if msgsz < 0 || msgsz > q.MaxBytes {
		return fail(EINVAL)
	}
	if q.bytes+msgsz > q.MaxBytes {
		return block(&q.writers)
	}
	buf := q.spare.get(4 + msgsz)
	if err := k.CopyInto(p, msgp, buf); err != nil {
		return fail(EFAULT)
	}
	mtype := int32(getLE32(buf))
	if mtype <= 0 {
		return fail(EINVAL)
	}
	q.msgs = append(q.msgs, message{mtype: mtype, buf: buf})
	q.bytes += msgsz
	k.Clk.Advance(k.Costs.MsgQOp)
	k.Wakeup(&q.readers)
	return ok(0)
}

// sysMsgrcv implements msgrcv(id, msgp, maxsz, mtype, flags). mtype 0
// takes the first message; mtype > 0 takes the first message of exactly
// that type. The payload length is returned.
func sysMsgrcv(k *Kernel, p *Proc, args []uint32) Sysret {
	id, msgp, maxsz, mtype := int(args[0]), args[1], int(args[2]), int32(args[3])
	q := k.msgqs[id]
	if q == nil {
		return fail(EINVAL)
	}
	i := q.find(mtype)
	if i < 0 {
		return block(&q.readers)
	}
	if len(q.msgs[i].buf)-4 > maxsz {
		// No MSG_NOERROR in the simulator: reject rather than truncate.
		return fail(EINVAL)
	}
	if err := k.CopyOut(p, msgp, q.msgs[i].buf); err != nil {
		return fail(EFAULT)
	}
	n := q.deliver(i)
	k.Clk.Advance(k.Costs.MsgQOp)
	k.Wakeup(&q.writers)
	return ok(uint32(n))
}
