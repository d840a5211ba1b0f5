// Package xdr implements the External Data Representation standard
// (RFC 1832), the wire encoding used by ONC RPC. The paper compares
// SecModule's shared-stack argument passing against exactly this
// marshal/unmarshal machinery: "the required argument marshaling and
// unmarshalling develops the same flavor as that of the XDR (External
// Data Representation) Protocol used in RPC" (section 3).
//
// All quantities are big-endian and padded to 4-byte multiples, per the
// RFC.
package xdr

import (
	"errors"
	"fmt"
)

// ErrShort is returned when a decode runs past the end of the buffer.
var ErrShort = errors.New("xdr: short buffer")

// Encoder appends XDR-encoded values to a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate discards everything after the first n encoded bytes, so a
// caller can take back a partly encoded value.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes an unsigned hyper.
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutInt64 encodes a hyper.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as 0 or 1.
func (e *Encoder) PutBool(b bool) {
	if b {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutRaw appends b verbatim, with no length and no padding: bytes that
// are already XDR-encoded.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutFixedOpaque encodes fixed-length opaque data (length implicit),
// padded to a 4-byte boundary.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	e.pad(len(b))
}

// pad appends the zero bytes that align n bytes of opaque data.
func (e *Encoder) pad(n int) {
	for pad := (4 - n%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque encodes variable-length opaque data: length then bytes.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString encodes a string, with the same bytes as PutOpaque.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.pad(len(s))
}

// PutUint32s encodes a variable-length array of uint32.
func (e *Encoder) PutUint32s(vs []uint32) {
	e.PutUint32(uint32(len(vs)))
	for _, v := range vs {
		e.PutUint32(v)
	}
}

// Decoder consumes XDR-encoded values from a byte buffer. It decodes
// in place: opaque data it returns points into the buffer rather than
// being copied, so it is valid only as long as the buffer is.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShort
	}
	b := d.buf[d.pos:]
	d.pos += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an unsigned hyper. The check is up front so a short
// buffer fails atomically instead of consuming the high half.
func (d *Decoder) Uint64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	hi, _ := d.Uint32()
	lo, _ := d.Uint32()
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 decodes a hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean; values other than 0/1 are an error per the RFC.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("xdr: bad bool %d", v)
}

// FixedOpaque decodes n bytes of fixed-length opaque data. The result
// points into the decoder's buffer; its capacity ends with it, so an
// append to it cannot overwrite what follows.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	padded := n + (4-n%4)%4
	if n < 0 || d.pos+padded > len(d.buf) {
		return nil, ErrShort
	}
	out := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += padded
	return out, nil
}

// Opaque decodes variable-length opaque data, in place like
// FixedOpaque.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, ErrShort
	}
	return d.FixedOpaque(int(n))
}

// String decodes a string: a copy, unlike Opaque.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// Uint32s decodes a variable-length array of uint32.
func (d *Decoder) Uint32s() ([]uint32, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n)*4 > d.Remaining() {
		return nil, ErrShort
	}
	out := make([]uint32, n)
	for i := range out {
		out[i], err = d.Uint32()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
