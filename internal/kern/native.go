package kern

import (
	"runtime"

	"repro/internal/vm"
)

// Native processes run ordinary Go functions as simulated processes.
// They exist so that bulky but security-irrelevant userland (the RPC
// client/server for the Figure 8 baseline, test drivers) does not have
// to be written in SM32 assembly. They obey the same rules as SM32
// processes: they interact with the world only through syscalls, each
// syscall charges the same trap/copy costs, and exactly one process of
// either kind executes at a time.
//
// The handoff protocol is strict alternation: the kernel parks while
// the native goroutine runs, and the goroutine parks while the kernel
// services its syscall. Native compute between syscalls costs zero
// simulated cycles unless the code charges itself with Sys.Burn, which
// the RPC baseline uses to account for XDR marshal work.

// natRequest is one pending native syscall.
type natRequest struct {
	no   uint32
	args [6]uint32
}

// natReply is the kernel's answer to a native syscall.
type natReply struct {
	val   uint32
	errno int
}

// nativeRunner drives one native process goroutine.
type nativeRunner struct {
	reqCh   chan natRequest // native -> kernel: service this syscall
	replyCh chan natReply   // kernel -> native: result
	resume  chan struct{}   // kernel -> native: start running
	done    chan struct{}   // closed when the goroutine ends
	quit    chan struct{}   // closed by kill(); unblocks the goroutine

	exitStatus int
	started    bool
	killedFlag bool
}

func newNativeRunner() *nativeRunner {
	return &nativeRunner{
		reqCh:   make(chan natRequest),
		replyCh: make(chan natReply),
		resume:  make(chan struct{}),
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
	}
}

// kill releases the goroutine if it is parked in a syscall or waiting
// to be resumed; the goroutine then terminates via runtime.Goexit.
func (r *nativeRunner) kill() {
	if r.killedFlag {
		return
	}
	r.killedFlag = true
	close(r.quit)
}

// Sys is the syscall interface handed to a native process function. All
// methods must be called only from that process's own goroutine.
type Sys struct {
	k *Kernel
	p *Proc
	r *nativeRunner

	// scratch is a bump allocator over the process's data segment, used
	// to stage byte buffers so that pointer-taking syscalls follow the
	// same copyin/copyout path (and pay the same costs) as SM32 callers.
	scratchBase uint32
	scratchEnd  uint32
	scratchCur  uint32
}

// Kernel returns the kernel the process runs on (for inspection; native
// test drivers use it to assert on simulator state).
func (s *Sys) Kernel() *Kernel { return s.k }

// Proc returns the process descriptor.
func (s *Sys) Proc() *Proc { return s.p }

// Call performs raw syscall no with up to six word arguments and
// returns the result value and errno (0 on success).
func (s *Sys) Call(no uint32, args ...uint32) (uint32, int) {
	select {
	case <-s.r.quit:
		runtime.Goexit()
	default:
	}
	var a [6]uint32
	copy(a[:], args)
	select {
	case s.r.reqCh <- natRequest{no: no, args: a}:
	case <-s.r.quit:
		runtime.Goexit()
	}
	select {
	case rep := <-s.r.replyCh:
		return rep.val, rep.errno
	case <-s.r.quit:
		runtime.Goexit()
	}
	panic("unreachable")
}

// Burn charges n simulated cycles of native compute (e.g. XDR marshal
// work in the RPC baseline). It is implemented as a syscall-free direct
// clock charge: native code runs while the kernel is parked, and the
// clock is not concurrently accessed.
func (s *Sys) Burn(n uint64) { s.k.Clk.Advance(n) }

// alloc stages n bytes in the scratch region and returns its address.
// The region recycles from the start once exhausted; buffers are only
// live for the duration of one syscall.
func (s *Sys) alloc(n int) uint32 {
	need := uint32(n+3) &^ 3
	if s.scratchCur+need > s.scratchEnd {
		s.scratchCur = s.scratchBase
	}
	if s.scratchCur+need > s.scratchEnd {
		panic("kern: native scratch buffer overflow")
	}
	addr := s.scratchCur
	s.scratchCur += need
	return addr
}

// stage copies b into scratch space and returns its address.
func (s *Sys) stage(b []byte) uint32 {
	addr := s.alloc(len(b))
	if err := s.p.Space.WriteBytes(addr, b); err != nil {
		panic("kern: native scratch write: " + err.Error())
	}
	return addr
}

// stageStr copies a NUL-terminated string into scratch space.
func (s *Sys) stageStr(str string) uint32 {
	return s.stage(append([]byte(str), 0))
}

// StageBytes copies b into the process's scratch segment and returns
// its address, for handing buffers to pointer-taking syscalls. The
// buffer is only guaranteed stable until the scratch region wraps.
func (s *Sys) StageBytes(b []byte) uint32 { return s.stage(b) }

// StageString stages a NUL-terminated string.
func (s *Sys) StageString(str string) uint32 { return s.stageStr(str) }

// AllocScratch reserves n scratch bytes and returns their address.
func (s *Sys) AllocScratch(n int) uint32 { return s.alloc(n) }

// ReserveTop permanently carves n bytes off the top of the scratch
// segment (e.g. for a simulated stack) and returns the address just
// past the reserved block.
func (s *Sys) ReserveTop(n int) uint32 {
	top := s.scratchEnd
	s.scratchEnd -= uint32((n + 3) &^ 3)
	if s.scratchCur > s.scratchEnd {
		s.scratchCur = s.scratchBase
	}
	return top
}

// Getpid returns the process ID via the getpid syscall (which, for a
// handle process, reports the paired client's PID per section 4.3).
func (s *Sys) Getpid() int {
	v, _ := s.Call(SYSgetpid)
	return int(v)
}

// Write writes b to fd (1 or 2 reach the kernel console).
func (s *Sys) Write(fd int, b []byte) (int, int) {
	addr := s.stage(b)
	v, e := s.Call(SYSwrite, uint32(fd), addr, uint32(len(b)))
	return int(v), e
}

// Exit terminates the process with the given status. It does not return.
func (s *Sys) Exit(status int) {
	s.Call(SYSexit, uint32(status))
	runtime.Goexit()
}

// Yield gives up the CPU voluntarily.
func (s *Sys) Yield() { s.Call(SYSyield) }

// Wait4 waits for a child to exit, returning its pid and status.
func (s *Sys) Wait4(pid int) (childPID, status, errno int) {
	statusAddr := s.alloc(4)
	v, e := s.Call(SYSwait4, uint32(int32(pid)), statusAddr)
	if e != 0 {
		return 0, 0, e
	}
	w, err := s.p.Space.Read32(statusAddr)
	if err != nil {
		return int(v), 0, EFAULT
	}
	return int(v), int(w), 0
}

// Kill sends sig to pid.
func (s *Sys) Kill(pid, sig int) int {
	_, e := s.Call(SYSkill, uint32(int32(pid)), uint32(sig))
	return e
}

// Msgget returns the SysV message queue for key, creating it if needed.
func (s *Sys) Msgget(key int32) (int, int) {
	v, e := s.Call(SYSmsgget, uint32(key), 0)
	return int(v), e
}

// Msgsnd enqueues a message of the given type.
func (s *Sys) Msgsnd(id int, mtype int32, data []byte) int {
	buf := make([]byte, 4+len(data))
	putLE32(buf, uint32(mtype))
	copy(buf[4:], data)
	addr := s.stage(buf)
	_, e := s.Call(SYSmsgsnd, uint32(id), addr, uint32(len(data)), 0)
	return e
}

// Msgrcv dequeues the next message of type mtype (0 = any), returning
// its type and payload.
func (s *Sys) Msgrcv(id int, mtype int32, maxSize int) (int32, []byte, int) {
	addr := s.alloc(4 + maxSize)
	v, e := s.Call(SYSmsgrcv, uint32(id), addr, uint32(maxSize), uint32(mtype), 0)
	if e != 0 {
		return 0, nil, e
	}
	buf, err := s.p.Space.ReadBytes(addr, 4+int(v))
	if err != nil {
		return 0, nil, EFAULT
	}
	return int32(getLE32(buf)), buf[4:], 0
}

// Socket creates a loopback datagram socket.
func (s *Sys) Socket() (int, int) {
	v, e := s.Call(SYSsocket, afLocalSim, sockDgram, 0)
	return int(v), e
}

// Bind binds the socket to a simulated loopback port.
func (s *Sys) Bind(fd int, port uint16) int {
	_, e := s.Call(SYSbind, uint32(fd), uint32(port))
	return e
}

// Sendto sends a datagram to port.
func (s *Sys) Sendto(fd int, port uint16, b []byte) int {
	addr := s.stage(b)
	_, e := s.Call(SYSsendto, uint32(fd), addr, uint32(len(b)), uint32(port))
	return e
}

// Recvfrom blocks for the next datagram on fd, returning payload and
// source port.
func (s *Sys) Recvfrom(fd int, maxSize int) ([]byte, uint16, int) {
	addr := s.alloc(maxSize)
	srcAddr := s.alloc(4)
	v, e := s.Call(SYSrecvfrom, uint32(fd), addr, uint32(maxSize), srcAddr)
	if e != 0 {
		return nil, 0, e
	}
	buf, err := s.p.Space.ReadBytes(addr, int(v))
	if err != nil {
		return nil, 0, EFAULT
	}
	src, err := s.p.Space.Read32(srcAddr)
	if err != nil {
		return nil, 0, EFAULT
	}
	return buf, uint16(src), 0
}

// nativeScratchSize is the data segment size for native processes.
const nativeScratchSize = 256 * 1024

// SpawnNative creates a native process running fn. fn's return value
// becomes the exit status. The process is runnable immediately; it
// starts executing on the next Run dispatch.
func (k *Kernel) SpawnNative(name string, cred Cred, fn func(*Sys) int) *Proc {
	space := k.newSpace()
	if _, err := space.Map(UserDataBase, nativeScratchSize, vm.ProtRW, "data"); err != nil {
		panic("kern: SpawnNative map: " + err.Error())
	}
	space.HeapStart = UserDataBase + nativeScratchSize
	space.HeapEnd = space.HeapStart

	p := k.newProc(name, space)
	p.Cred = cred
	r := newNativeRunner()
	p.native = r
	sys := &Sys{
		k: k, p: p, r: r,
		scratchBase: UserDataBase,
		scratchEnd:  UserDataBase + nativeScratchSize,
		scratchCur:  UserDataBase,
	}
	go func() {
		defer close(r.done)
		select {
		case <-r.resume:
		case <-r.quit:
			return
		}
		r.exitStatus = fn(sys)
	}()
	k.ready(p)
	return p
}

// dispatchNative runs a native process until it blocks, exits, or a
// preemption point is reached.
func (k *Kernel) dispatchNative(p *Proc) error {
	r := p.native

	// A syscall that blocked earlier: retry it now that we were woken.
	if p.pending {
		done, rep := k.serviceNative(p, p.pendingNo)
		if !done {
			return nil // still blocked
		}
		p.pending = false
		if p.State != StateRunning {
			return nil // exited inside the syscall
		}
		select {
		case r.replyCh <- rep:
		case <-r.done:
			return nil
		}
	}

	if !r.started {
		r.started = true
		select {
		case r.resume <- struct{}{}:
		case <-r.done:
			k.finishNative(p)
			return nil
		}
	}

	for {
		select {
		case req := <-r.reqCh:
			p.args = req.args
			if k.preempt {
				// Preemption point: hold the unserviced syscall until our
				// next slice; the pending path services it then.
				p.pending, p.pendingNo = true, req.no
				return nil
			}
			done, rep := k.serviceNative(p, req.no)
			if !done {
				p.pending, p.pendingNo = true, req.no
				return nil // blocked; sleep state already set
			}
			if p.State != StateRunning {
				return nil // exited
			}
			select {
			case r.replyCh <- rep:
			case <-r.done:
				k.finishNative(p)
				return nil
			}
		case <-r.done:
			k.finishNative(p)
			return nil
		}
	}
}

// serviceNative runs the handler of native syscall no on the arguments
// in p.args. It returns done=false when the syscall blocked (sleep state
// set).
func (k *Kernel) serviceNative(p *Proc, no uint32) (bool, natReply) {
	k.Clk.Advance(k.Costs.Trap + k.Costs.SyscallDemux)
	k.SyscallCount++
	fn := k.syscalls[no]
	if fn == nil {
		k.Clk.Advance(k.Costs.Trap)
		return true, natReply{errno: ENOSYS}
	}
	res := fn(k, p, p.args[:])
	if res.BlockOn != nil {
		k.sleep(p, res.BlockOn)
		return false, natReply{}
	}
	k.Clk.Advance(k.Costs.Trap)
	return true, natReply{val: res.Val, errno: res.Err}
}

// finishNative reaps a native goroutine that returned normally.
func (k *Kernel) finishNative(p *Proc) {
	if p.State == StateZombie || p.State == StateDead {
		return
	}
	k.doExit(p, p.native.exitStatus)
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
