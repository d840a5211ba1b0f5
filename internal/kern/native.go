package kern

import (
	"runtime"
	"slices"

	"repro/internal/vm"
)

// Native processes run Go code as simulated processes. They exist so
// that bulky but security-irrelevant userland (the RPC client and
// server of the Figure 8 baseline, the fleet's session clients, test
// drivers) does not have to be written in SM32 assembly. They obey the
// same rules as SM32 processes: they interact with the world only
// through syscalls, each syscall charges the same trap/copy costs, and
// exactly one process of either kind executes at a time.
//
// The kernel drives a native process as a Stepper, called inline from
// dispatch: each Step is handed the last syscall's result and returns
// the next syscall, or an exit. The RPC baseline and the fleet's
// session clients are Steppers, so their syscalls never leave the
// kernel's goroutine. Blocking Go code (SpawnNative: the examples,
// calibration, tests) runs on a goroutine of its own behind a Stepper
// adapter, in strict alternation with the kernel over one unbuffered
// channel each way. Native compute between syscalls costs zero
// simulated cycles unless the code charges itself with Sys.Burn, which
// the RPC baseline uses to account for XDR marshal work.

// Syscall is one system call a native process asks the kernel for: its
// number and up to six word arguments.
type Syscall struct {
	No   uint32
	Args [6]uint32
}

// Stepper is the body of a native process. The kernel calls Step first
// with a zero result, then once after each syscall Step returned has
// completed, with that syscall's value and errno. Step returns the next
// syscall to make, or exit=true and the exit status. Step runs inside
// the kernel's dispatch, so it must never block; a syscall that blocks
// simply delays the next Step until the process is woken and the
// syscall completes.
type Stepper interface {
	Step(s *Sys, val uint32, errno int) (sc Syscall, exit bool, status int)
}

// natMsg is what a goroutine hands the kernel: its next syscall, or its
// end and exit status.
type natMsg struct {
	sc     Syscall
	end    bool
	status int
}

// natReply is the kernel's answer to a goroutine's syscall: its result,
// or quit once the process has exited.
type natReply struct {
	val   uint32
	errno int
	quit  bool
}

// goStepper is the Stepper that runs a blocking func(*Sys) int on a
// goroutine of its own. The two alternate strictly: the kernel waits in
// Step for the goroutine's next message on req while the goroutine
// runs, and the goroutine waits in Sys.Call for its result on reply
// while the kernel services the syscall. So each hand-off is one send
// on an unbuffered channel whose receiver is waiting, or about to. The
// goroutine starts on the first Step, so a process killed before its
// first dispatch never starts one.
type goStepper struct {
	fn    func(*Sys) int
	req   chan natMsg   // goroutine -> kernel: the next syscall, or the end
	reply chan natReply // kernel -> goroutine: the result, or quit
	done  chan struct{} // closed when the goroutine ends

	// Kept by the kernel side (in Step and stop).
	started bool // the goroutine was started
	running bool // the goroutine runs while the kernel waits in Step
	ended   bool // the goroutine sent its end, or is told to quit
	// Kept by the goroutine: it received a quit, so nobody waits for its
	// end.
	quit bool
}

// Step hands the goroutine its last syscall's result (starting the
// goroutine on the first call) and waits for its next syscall or its
// end.
func (g *goStepper) Step(s *Sys, val uint32, errno int) (Syscall, bool, int) {
	g.running = true
	if !g.started {
		g.started = true
		go g.run(s)
	} else {
		g.reply <- natReply{val: val, errno: errno}
	}
	m := <-g.req
	g.running = false
	switch {
	case m.end:
		g.ended = true
		return Syscall{}, true, m.status
	case g.ended:
		// The goroutine exited its own process by a direct kernel call
		// while it ran, then asked for a syscall: tell it to quit.
		g.reply <- natReply{quit: true}
		return Syscall{}, true, 0
	}
	return m.sc, false, 0
}

// run is the goroutine: it runs fn and sends the kernel its end. An end
// by runtime.Goexit (a test driver's t.Fatal) is sent too, with status
// 0, unless it was a quit, for which nobody waits.
func (g *goStepper) run(s *Sys) {
	defer close(g.done)
	status := 0
	defer func() {
		if !g.quit {
			g.req <- natMsg{end: true, status: status}
		}
	}()
	status = g.fn(s)
}

// stop tells the goroutine that its process exited, so that it ends
// via runtime.Goexit instead of waiting in Sys.Call for good. Only a
// goroutine that has started and not yet ended is told. One parked in
// Sys.Call gets the quit now; one that is running (it exited its own
// process by a direct kernel call) gets it at its next syscall.
func (g *goStepper) stop() {
	if !g.started || g.ended {
		return
	}
	g.ended = true
	if !g.running {
		g.reply <- natReply{quit: true}
	}
}

// Sys is a native process's handle on the kernel. A Stepper uses it to
// stage syscall buffers; blocking code run by SpawnNative also makes
// its syscalls through it, from that process's own goroutine.
type Sys struct {
	k    *Kernel
	p    *Proc
	step Stepper
	g    *goStepper // the goroutine adapter, nil for a SpawnStepper body

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
// returns the result value and errno (0 on success). It blocks, so only
// code run by SpawnNative may call it; a Stepper returns its syscalls
// from Step instead, and calling this from one panics.
func (s *Sys) Call(no uint32, args ...uint32) (uint32, int) {
	sc := Syscall{No: no}
	copy(sc.Args[:], args)
	return s.call(sc)
}

// call hands sc to the kernel and waits for its result. A process that
// exited meanwhile ends its goroutine here.
func (s *Sys) call(sc Syscall) (uint32, int) {
	g := s.g
	if g == nil {
		panic("kern: Sys.Call from a stepper; return the syscall from Step")
	}
	g.req <- natMsg{sc: sc}
	r := <-g.reply
	if r.quit {
		g.quit = true
		runtime.Goexit()
	}
	return r.val, r.errno
}

// Burn charges n simulated cycles of native compute (e.g. XDR marshal
// work in the RPC baseline). It is a syscall-free direct clock charge:
// native code runs while the kernel waits for it, so the clock is not
// concurrently accessed.
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

// The socket syscalls come in split-phase form for a Stepper: SocketCall,
// BindCall, SendtoCall and RecvfromCall build the syscall, staging a
// send's payload or reserving a receive's buffers in scratch space, and
// Received reads back what a recvfrom delivered. Socket, Bind, Sendto
// and Recvfrom drive them from blocking code.

// SocketCall returns the socket syscall that creates a loopback
// datagram socket; its value is the socket's descriptor.
func (s *Sys) SocketCall() Syscall {
	return Syscall{No: SYSsocket, Args: [6]uint32{afLocalSim, sockDgram}}
}

// BindCall returns the bind syscall that binds socket fd to a simulated
// loopback port.
func (s *Sys) BindCall(fd int, port uint16) Syscall {
	return Syscall{No: SYSbind, Args: [6]uint32{uint32(fd), uint32(port)}}
}

// SendtoCall stages b and returns the sendto syscall that sends it from
// socket fd as one datagram to port.
func (s *Sys) SendtoCall(fd int, port uint16, b []byte) Syscall {
	return Syscall{No: SYSsendto, Args: [6]uint32{uint32(fd), s.stage(b), uint32(len(b)), uint32(port)}}
}

// RecvfromCall reserves the buffers of a receive of at most maxSize
// bytes and returns the recvfrom syscall that blocks for the next
// datagram on socket fd. Received reads back what it delivered.
func (s *Sys) RecvfromCall(fd int, maxSize int) Syscall {
	addr := s.alloc(maxSize)
	srcAddr := s.alloc(4)
	return Syscall{No: SYSrecvfrom, Args: [6]uint32{uint32(fd), addr, uint32(maxSize), srcAddr}}
}

// Received reads back what the recvfrom sc delivered, given the
// syscall's value and errno, and returns the payload and source port.
// The payload is read into buf's array, grown when too small, so a
// caller that passes back the slice it got receives without allocating.
func (s *Sys) Received(sc Syscall, val uint32, errno int, buf []byte) ([]byte, uint16, int) {
	if errno != 0 {
		return nil, 0, errno
	}
	buf = slices.Grow(buf[:0], int(val))[:val]
	if err := s.p.Space.ReadInto(sc.Args[1], buf); err != nil {
		return nil, 0, EFAULT
	}
	src, err := s.p.Space.Read32(sc.Args[3])
	if err != nil {
		return nil, 0, EFAULT
	}
	return buf, uint16(src), 0
}

// Socket creates a loopback datagram socket.
func (s *Sys) Socket() (int, int) {
	fd, e := s.call(s.SocketCall())
	return int(fd), e
}

// Bind binds the socket to a simulated loopback port.
func (s *Sys) Bind(fd int, port uint16) int {
	_, e := s.call(s.BindCall(fd, port))
	return e
}

// Sendto sends a datagram to port.
func (s *Sys) Sendto(fd int, port uint16, b []byte) int {
	_, e := s.call(s.SendtoCall(fd, port, b))
	return e
}

// Recvfrom blocks for the next datagram on fd, receiving at most
// maxSize bytes of it, and returns the payload and source port, read
// into buf's array as Received does.
func (s *Sys) Recvfrom(fd int, maxSize int, buf []byte) ([]byte, uint16, int) {
	sc := s.RecvfromCall(fd, maxSize)
	v, e := s.call(sc)
	return s.Received(sc, v, e, buf)
}

// nativeScratchSize is the data segment size for native processes.
const nativeScratchSize = 256 * 1024

// SpawnStepper creates a native process whose body is st. The process
// is runnable immediately; its first Step runs on the next Run
// dispatch, and the status Step returns with exit becomes the exit
// status.
func (k *Kernel) SpawnStepper(name string, cred Cred, st Stepper) *Proc {
	space := k.newSpace()
	if _, err := space.Map(UserDataBase, nativeScratchSize, vm.ProtRW, "data"); err != nil {
		panic("kern: SpawnStepper map: " + err.Error())
	}
	space.HeapStart = UserDataBase + nativeScratchSize
	space.HeapEnd = space.HeapStart

	p := k.newProc(name, space)
	p.Cred = cred
	p.native = popSpare(&k.spareSys)
	*p.native = Sys{
		k: k, p: p, step: st,
		scratchBase: UserDataBase,
		scratchEnd:  UserDataBase + nativeScratchSize,
		scratchCur:  UserDataBase,
	}
	k.ready(p)
	return p
}

// SpawnNative creates a native process running the blocking function
// fn on a goroutine of its own, behind a Stepper adapter. fn's return
// value becomes the exit status.
func (k *Kernel) SpawnNative(name string, cred Cred, fn func(*Sys) int) *Proc {
	g := &goStepper{
		fn:    fn,
		req:   make(chan natMsg),
		reply: make(chan natReply),
		done:  make(chan struct{}),
	}
	p := k.SpawnStepper(name, cred, g)
	p.native.g = g
	return p
}

// dispatchNative runs a native process until it blocks, exits, or a
// preemption point is reached: retry a syscall that blocked earlier,
// then step, and service each syscall the step returns.
func (k *Kernel) dispatchNative(p *Proc) error {
	s := p.native
	var val uint32
	var errno int
	retry := p.pending
	for {
		if !retry {
			sc, exit, status := s.step.Step(s, val, errno)
			if exit {
				k.doExit(p, status)
				return nil
			}
			p.args, p.pendingNo = sc.Args, sc.No
			if k.preempt {
				// Preemption point: hold the unserviced syscall until our
				// next slice, which retries it.
				p.pending = true
				return nil
			}
		}
		retry = false
		done, rep := k.serviceNative(p, p.pendingNo)
		if !done {
			p.pending = true
			return nil // blocked; sleep state already set
		}
		p.pending = false
		if p.State != StateRunning {
			return nil // exited inside the syscall
		}
		val, errno = rep.val, rep.errno
	}
}

// serviceNative runs the handler of native syscall no on the arguments
// in p.args. It returns done=false when the syscall blocked (sleep state
// set).
func (k *Kernel) serviceNative(p *Proc, no uint32) (bool, natReply) {
	k.Clk.Advance(k.Costs.Trap + k.Costs.SyscallDemux)
	k.SyscallCount++
	fn := k.syscall(no)
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

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
