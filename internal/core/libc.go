package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/obj"
)

// The SecModule libc: the retrofit target from the paper's section 4.
// "even C library functions like malloc() can be placed inside a
// SecModule, working identically to its man-page specification within
// the SecModule framework." The functions below execute in the handle,
// on the shared stack, against the client's data/heap — malloc really
// does grow the client's heap, through the modified sys_obreak shared
// growth path. Its bookkeeping (current/end break words) lives in
// module data, which is mapped only in the handle: the client cannot
// corrupt the allocator state it depends on.
//
// getpid here is the paper's SMOD(SMOD-getpid) measurement subject: the
// body is one TRAP 20 executed by the handle, and the kernel's
// section 4.3 rule makes it report the client's PID.
//
// incr is the paper's test-incr: "The function tested for both RPC and
// SecModule returns the argument value incremented by one."

// LibCSource returns the SM32 assembly of the SecModule libc.
func LibCSource() string {
	return `
; SecModule libc (module side)
.text

.global malloc
malloc:
	ENTER 8
	; first call: heap_cur = heap_end = break(0)
	PUSHI heap_cur
	LOAD
	JNZ mal_have
	PUSHI 0
	TRAP 17
	ADDSP 4
	PUSHRV
	PUSHI heap_cur
	STORE
	PUSHRV
	PUSHI heap_end
	STORE
mal_have:
	; local[-4] = cur, local[-8] = size rounded to 4
	PUSHI heap_cur
	LOAD
	STOREFP -4
	LOADFP 8
	PUSHI 3
	ADD
	PUSHI -4
	AND
	STOREFP -8
	; grow when cur + size > end
	PUSHI heap_end
	LOAD
	LOADFP -4
	LOADFP -8
	ADD
	LTU
	JZ mal_fit
	LOADFP -4
	LOADFP -8
	ADD
	PUSHI 16384
	ADD
	TRAP 17
	ADDSP 4
	PUSHRV
	PUSHI 0x80000000
	AND
	JZ mal_grown
	PUSHI 0
	SETRV
	LEAVE
	RET
mal_grown:
	PUSHRV
	PUSHI heap_end
	STORE
mal_fit:
	LOADFP -4
	LOADFP -8
	ADD
	PUSHI heap_cur
	STORE
	LOADFP -4
	SETRV
	LEAVE
	RET

.global free
free:
	ENTER 0
	PUSHI 0
	SETRV
	LEAVE
	RET

.global calloc
calloc:
	ENTER 4
	LOADFP 8
	LOADFP 12
	MUL
	STOREFP -4
	LOADFP -4
	CALL malloc
	ADDSP 4
	PUSHRV
	JZ cal_done
	LOADFP -4
	PUSHI 0
	PUSHRV
	CALL memset
	ADDSP 12
cal_done:
	LEAVE
	RET

.global getpid
getpid:
	ENTER 0
	TRAP 20
	LEAVE
	RET

.global incr
incr:
	ENTER 0
	LOADFP 8
	PUSHI 1
	ADD
	SETRV
	LEAVE
	RET

.global memset
memset:
	ENTER 4
	PUSHI 0
	STOREFP -4
ms_loop:
	LOADFP -4
	LOADFP 16
	GEU
	JNZ ms_done
	LOADFP 12
	LOADFP 8
	LOADFP -4
	ADD
	STOREB
	LOADFP -4
	PUSHI 1
	ADD
	STOREFP -4
	JMP ms_loop
ms_done:
	LOADFP 8
	SETRV
	LEAVE
	RET

.global memcpy
memcpy:
	ENTER 4
	PUSHI 0
	STOREFP -4
mc_loop:
	LOADFP -4
	LOADFP 16
	GEU
	JNZ mc_done
	LOADFP 12
	LOADFP -4
	ADD
	LOADB
	LOADFP 8
	LOADFP -4
	ADD
	STOREB
	LOADFP -4
	PUSHI 1
	ADD
	STOREFP -4
	JMP mc_loop
mc_done:
	LOADFP 8
	SETRV
	LEAVE
	RET

.global strlen
strlen:
	ENTER 4
	PUSHI 0
	STOREFP -4
sl_loop:
	LOADFP 8
	LOADFP -4
	ADD
	LOADB
	JZ sl_done
	LOADFP -4
	PUSHI 1
	ADD
	STOREFP -4
	JMP sl_loop
sl_done:
	LOADFP -4
	SETRV
	LEAVE
	RET

.global write
write:
	ENTER 0
	LOADFP 16
	LOADFP 12
	LOADFP 8
	TRAP 4
	ADDSP 12
	LEAVE
	RET

; allocator bookkeeping: module-private data, handle-only (Figure 2)
.data
heap_cur: .word 0
heap_end: .word 0
`
}

// LibCArchive assembles the SecModule libc into a library archive.
func LibCArchive() (*obj.Archive, error) {
	o, err := asm.Assemble("smod_libc.s", LibCSource())
	if err != nil {
		return nil, fmt.Errorf("core: libc assembly: %w", err)
	}
	a := &obj.Archive{Name: "libc_smod.a"}
	a.Add(o)
	return a, nil
}
