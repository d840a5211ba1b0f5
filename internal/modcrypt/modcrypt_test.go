package modcrypt

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/obj"
)

// testLib builds a one-member library exporting incr (returns arg+1)
// with a relocation (a CALL to a helper) so encryption must skip holes.
const libSrc = `
.text
.global incr
incr:
	ENTER 0
	LOADFP 8
	PUSHI 1
	ADD
	SETRV
	LEAVE
	RET
.global twice
twice:
	ENTER 0
	LOADFP 8
	PUSHI incr
	CALLI
	ADDSP 4
	PUSHRV
	PUSHI incr
	CALLI
	ADDSP 4
	LEAVE
	RET
`

func buildLib(t *testing.T) *obj.Archive {
	t.Helper()
	o, err := asm.Assemble("libincr.s", libSrc)
	if err != nil {
		t.Fatal(err)
	}
	lib := &obj.Archive{Name: "libincr.a"}
	lib.Add(o)
	return lib
}

func TestEncryptChangesNonHoleBytesOnly(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	orig := lib.Members[0].Clone()
	enc, err := EncryptArchive(ks, lib, "k", []byte("key material"))
	if err != nil {
		t.Fatal(err)
	}
	m := enc.Members[0]
	if !m.Encrypted {
		t.Fatal("member not marked encrypted")
	}
	if bytes.Equal(m.Text, orig.Text) {
		t.Fatal("ciphertext equals plaintext")
	}
	// Every text relocation window must be untouched.
	for _, r := range m.Relocs {
		if r.Section != "text" {
			continue
		}
		for i := uint32(0); i < 4; i++ {
			if m.Text[r.Offset+i] != orig.Text[r.Offset+i] {
				t.Fatalf("relocation hole byte %#x was encrypted", r.Offset+i)
			}
		}
	}
	// The original archive must be untouched.
	if !bytes.Equal(lib.Members[0].Text, orig.Text) {
		t.Fatal("EncryptArchive modified the source archive")
	}
}

func TestEncryptedArchiveStillLinks(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	enc, err := EncryptArchive(ks, lib, "k", []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	main, err := asm.Assemble("main.s", `
.text
.global _start
_start:
	PUSHI 5
	PUSHI twice
	CALLI
	ADDSP 4
	PUSHRV
	TRAP 1
`)
	if err != nil {
		t.Fatal(err)
	}
	im, err := obj.Link(obj.LinkOptions{}, []*obj.Object{main}, enc)
	if err != nil {
		t.Fatalf("link of encrypted archive failed: %v (section 4.1 requires linkability)", err)
	}
	if !EncryptedPlacements(im) {
		t.Fatal("image lost the encrypted placement markers")
	}
}

func TestDecryptRestoresExactPlaintext(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	enc, err := EncryptArchive(ks, lib, "k", []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	main, err := asm.Assemble("main.s", `
.text
.global _start
_start:
	PUSHI 5
	PUSHI twice
	CALLI
	ADDSP 4
	PUSHRV
	TRAP 1
`)
	if err != nil {
		t.Fatal(err)
	}
	// Link the same client against plaintext and ciphertext libraries;
	// after decryption the images must be byte-identical.
	plainIm, err := obj.Link(obj.LinkOptions{}, []*obj.Object{main.Clone()}, lib)
	if err != nil {
		t.Fatal(err)
	}
	encIm, err := obj.Link(obj.LinkOptions{}, []*obj.Object{main.Clone()}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plainIm.Text, encIm.Text) {
		t.Fatal("encrypted image text should differ before decryption")
	}
	if err := DecryptImageText(ks, encIm); err != nil {
		t.Fatal(err)
	}
	MarkDecrypted(encIm)
	if !bytes.Equal(plainIm.Text, encIm.Text) {
		t.Fatal("decrypted text differs from plaintext link")
	}
}

func TestDecryptWithoutKeyFails(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	enc, err := EncryptArchive(ks, lib, "k", []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	main, _ := asm.Assemble("main.s", `
.text
.global _start
_start:
	PUSHI 1
	PUSHI incr
	CALLI
	ADDSP 4
	TRAP 1
`)
	im, err := obj.Link(obj.LinkOptions{}, []*obj.Object{main}, enc)
	if err != nil {
		t.Fatal(err)
	}
	empty := NewKeystore()
	if err := DecryptImageText(empty, im); err == nil {
		t.Fatal("decryption succeeded without the key")
	}
}

func TestDoubleEncryptRejected(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	m := lib.Members[0].Clone()
	if err := EncryptObject(ks, m, "k1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := EncryptObject(ks, m, "k2", []byte("b")); err == nil {
		t.Fatal("double encryption accepted")
	}
}

func TestDistinctKeyIDsGetDistinctKeystreams(t *testing.T) {
	ks := NewKeystore()
	lib1 := buildLib(t)
	lib2 := buildLib(t)
	e1, err := EncryptArchive(ks, lib1, "id-one", []byte("same key"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EncryptArchive(ks, lib2, "id-two", []byte("same key"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(e1.Members[0].Text, e2.Members[0].Text) {
		t.Fatal("same keystream for different key IDs")
	}
}

func TestDecryptedBlocksCount(t *testing.T) {
	ks := NewKeystore()
	lib := buildLib(t)
	enc, _ := EncryptArchive(ks, lib, "k", []byte("key"))
	main, _ := asm.Assemble("main.s", `
.text
.global _start
_start:
	PUSHI 1
	PUSHI incr
	CALLI
	ADDSP 4
	TRAP 1
`)
	im, err := obj.Link(obj.LinkOptions{}, []*obj.Object{main}, enc)
	if err != nil {
		t.Fatal(err)
	}
	n := DecryptedBlocks(im)
	if n <= 0 {
		t.Fatalf("DecryptedBlocks = %d, want > 0", n)
	}
	var encSize uint32
	for _, pl := range im.Placements {
		if pl.Encrypted {
			encSize += pl.Size
		}
	}
	want := (int(encSize) + 15) / 16
	if n != want {
		t.Fatalf("DecryptedBlocks = %d, want %d", n, want)
	}
}

// Property: encrypt then decrypt is the identity on arbitrary text with
// arbitrary (in-range, non-overlapping enough) relocation holes.
func TestEncryptDecryptRoundTripProperty(t *testing.T) {
	ks := NewKeystore()
	f := func(text []byte, holeSeeds []uint32, key []byte) bool {
		if len(text) == 0 {
			return true
		}
		o := &obj.Object{Name: "m", Text: append([]byte(nil), text...)}
		for _, h := range holeSeeds {
			if len(text) > 4 {
				off := h % uint32(len(text)-4)
				o.Relocs = append(o.Relocs, obj.Reloc{Section: "text", Offset: off, Symbol: "s"})
			}
		}
		// Give the object a dummy global so linking is not needed; we
		// exercise object-level encrypt + manual decrypt instead.
		if err := EncryptObject(ks, o, "prop-key", append(key, 1)); err != nil {
			return false
		}
		// Manual decrypt: same keystream, same holes.
		k2, _ := ks.Key("prop-key")
		stream, err := keystream(k2, "prop-key", len(o.Text))
		if err != nil {
			return false
		}
		var holes []uint32
		for _, r := range o.Relocs {
			holes = append(holes, r.Offset)
		}
		for i := range o.Text {
			if !inHole(holes, uint32(i)) {
				o.Text[i] ^= stream[i]
			}
		}
		return bytes.Equal(o.Text, text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// inHole is the reference xorOutsideHoles must match: whether off lies
// in the 4-byte relocation window starting at any offset in holes.
func inHole(holes []uint32, off uint32) bool {
	for _, h := range holes {
		if off >= h && off < h+4 {
			return true
		}
	}
	return false
}

// xorReference is xorOutsideHoles written with inHole.
func xorReference(text, stream []byte, holes []uint32) {
	for i := range text {
		if !inHole(holes, uint32(i)) {
			text[i] ^= stream[i]
		}
	}
}

// TestXorOutsideHolesMatchesInHole: the sorted walk skips exactly the
// bytes inHole skips, on unsorted, duplicated, overlapping and
// out-of-range holes.
func TestXorOutsideHolesMatchesInHole(t *testing.T) {
	check := func(n int, holes []uint32) {
		t.Helper()
		stream := make([]byte, n)
		for i := range stream {
			stream[i] = byte(i*7 + 1)
		}
		text := make([]byte, n)
		want := make([]byte, n)
		xorReference(want, stream, holes)
		xorOutsideHoles(text, stream, slices.Clone(holes))
		if !bytes.Equal(text, want) {
			t.Fatalf("n=%d holes=%v:\n got %v\nwant %v", n, holes, text, want)
		}
	}
	for _, c := range []struct {
		n     int
		holes []uint32
	}{
		{0, nil},
		{0, []uint32{0}},
		{12, nil},
		{12, []uint32{0}},
		{12, []uint32{8, 0, 4}},
		{12, []uint32{6, 5, 5, 3}},
		{12, []uint32{1, 2, 0}},
		{12, []uint32{10}},
		{12, []uint32{11, 40}},
		{12, []uint32{^uint32(0), 2, ^uint32(0) - 3}},
	} {
		check(c.n, c.holes)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(96)
		holes := make([]uint32, rng.Intn(12))
		for j := range holes {
			switch rng.Intn(8) {
			case 0:
				holes[j] = ^uint32(rng.Intn(8)) // a hole address below its placement
			default:
				holes[j] = uint32(rng.Intn(n + 8))
			}
		}
		check(n, holes)
	}
}

// TestDecryptMatchesInHoleReference: DecryptImageText on a placement
// with unsorted, overlapping holes XORs exactly the bytes inHole leaves
// out, and leaves the placement's hole list as it was.
func TestDecryptMatchesInHoleReference(t *testing.T) {
	ks := NewKeystore()
	ks.Add("k", []byte("key"))
	key, _ := ks.Key("k")
	const base, addr, size = 0x1000, 0x1010, 40
	text := make([]byte, 64)
	for i := range text {
		text[i] = byte(i)
	}
	holes := []uint32{addr + 30, addr + 2, addr + 4, addr + 2, addr + 38}
	im := &obj.Image{TextBase: base, Text: slices.Clone(text), Placements: []obj.Placement{{
		Section: "text", Addr: addr, Size: size, Encrypted: true, KeyID: "k",
		RelocHoles: slices.Clone(holes),
	}}}
	if err := DecryptImageText(ks, im); err != nil {
		t.Fatal(err)
	}
	stream, err := keystream(key, "k", size)
	if err != nil {
		t.Fatal(err)
	}
	rel := make([]uint32, len(holes))
	for i, h := range holes {
		rel[i] = h - addr
	}
	want := slices.Clone(text)
	xorReference(want[addr-base:addr-base+size], stream, rel)
	if !bytes.Equal(im.Text, want) {
		t.Fatalf("decrypted text:\n got %v\nwant %v", im.Text, want)
	}
	if got := im.Placements[0].RelocHoles; !slices.Equal(got, holes) {
		t.Fatalf("RelocHoles = %v after decryption, want %v untouched", got, holes)
	}
}
