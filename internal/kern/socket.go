package kern

// Simulated loopback datagram sockets, used by the Figure 8 RPC
// baseline. They model a UDP socket bound to a port on 127.0.0.1: a
// sendto copies the payload through the socket layer (paying the mbuf
// and "checksum" costs of the era's loopback path), queues it on the
// destination socket, and wakes any blocked reader.

// Socket address/type constants for the socket(2) arguments (values are
// private to the simulator).
const (
	afLocalSim = 1
	sockDgram  = 2
)

// dgram is one queued datagram.
type dgram struct {
	from uint16
	data []byte
}

// Socket is one loopback datagram socket.
type Socket struct {
	owner *Proc
	fd    int
	port  uint16 // 0 while unbound
	queue []dgram
	open  bool
	// readers holds the processes blocked in recvfrom.
	readers WaitQ
	// spare holds the buffers of datagrams this socket delivered, and
	// of its sends that found no receiver, for its next sends to fill.
	spare spareBufs
}

// Pending reports the number of queued datagrams.
func (s *Socket) Pending() int { return len(s.queue) }

func (k *Kernel) closeSocket(s *Socket) {
	if s == nil || !s.open {
		return
	}
	s.open = false
	if s.port != 0 && k.ports[s.port] == s {
		delete(k.ports, s.port)
	}
	s.queue = nil
	k.Wakeup(&s.readers)
}

// sysSocket implements socket(af, type, proto); only local datagram
// sockets exist in the simulator.
func sysSocket(k *Kernel, p *Proc, args []uint32) Sysret {
	if args[0] != afLocalSim || args[1] != sockDgram {
		return fail(EINVAL)
	}
	s := &Socket{owner: p, fd: p.nextFD, open: true}
	if p.fds == nil {
		p.fds = map[int]*Socket{}
	}
	p.fds[p.nextFD] = s
	p.nextFD++
	k.Clk.Advance(k.Costs.SyscallSimple)
	return ok(uint32(s.fd))
}

// sysBind implements bind(fd, port).
func sysBind(k *Kernel, p *Proc, args []uint32) Sysret {
	s := p.fds[int(args[0])]
	port := uint16(args[1])
	if s == nil {
		return fail(EBADF)
	}
	if port == 0 {
		return fail(EINVAL)
	}
	if other, taken := k.ports[port]; taken && other != s {
		return fail(EEXIST)
	}
	if s.port != 0 {
		delete(k.ports, s.port)
	}
	s.port = port
	k.ports[port] = s
	k.Clk.Advance(k.Costs.SyscallSimple)
	return ok(0)
}

// sysSendto implements sendto(fd, buf, len, dstPort): copy the payload
// in, pay the socket-layer cost, and deliver to the socket bound to
// dstPort. Datagrams to an unbound port are silently dropped (UDP
// semantics); the send still succeeds.
func sysSendto(k *Kernel, p *Proc, args []uint32) Sysret {
	s := p.fds[int(args[0])]
	buf, n, dst := args[1], int(args[2]), uint16(args[3])
	if s == nil {
		return fail(EBADF)
	}
	if n < 0 || n > 64*1024 {
		return fail(EINVAL)
	}
	b := s.spare.get(n)
	if err := k.CopyInto(p, buf, b); err != nil {
		s.spare.put(b)
		return fail(EFAULT)
	}
	k.Clk.Advance(k.Costs.SocketOp)
	dstSock, found := k.ports[dst]
	if !found || !dstSock.open {
		s.spare.put(b)
		return ok(uint32(n))
	}
	// Loopback delivery: a second copy into the receive buffer, as the
	// loopback interface re-enqueues the mbuf chain.
	k.Clk.Advance(uint64(n) * k.Costs.CopyPerByte)
	dstSock.queue = append(dstSock.queue, dgram{from: s.port, data: b})
	k.Clk.Advance(k.Costs.SocketWakeup)
	k.Wakeup(&dstSock.readers)
	return ok(uint32(n))
}

// sysRecvfrom implements recvfrom(fd, buf, maxlen, srcPortp): block
// until a datagram arrives, copy it out, and store the source port
// through srcPortp (if non-zero).
func sysRecvfrom(k *Kernel, p *Proc, args []uint32) Sysret {
	s := p.fds[int(args[0])]
	buf, maxn, srcp := args[1], int(args[2]), args[3]
	if s == nil || !s.open {
		return fail(EBADF)
	}
	if len(s.queue) == 0 {
		return block(&s.readers)
	}
	d := s.queue[0]
	if len(d.data) > maxn {
		return fail(EINVAL)
	}
	// Pop in place, so the queue keeps its backing array.
	n := copy(s.queue, s.queue[1:])
	s.queue[n] = dgram{}
	s.queue = s.queue[:n]
	k.Clk.Advance(k.Costs.SocketOp)
	err := k.CopyOut(p, buf, d.data)
	s.spare.put(d.data)
	if err != nil {
		return fail(EFAULT)
	}
	if srcp != 0 {
		from := [4]byte{byte(d.from), byte(d.from >> 8)}
		if err := k.CopyOut(p, srcp, from[:]); err != nil {
			return fail(EFAULT)
		}
	}
	return ok(uint32(len(d.data)))
}
