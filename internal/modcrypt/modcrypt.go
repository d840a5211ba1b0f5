// Package modcrypt implements the paper's section 4.1 first protection
// approach: "encrypt the library using a secret key not revealed to the
// client process ... We only encrypt regions in the library's text that
// do not correspond to relocation or linking data. That way, the
// encrypted version of the library is still linkable using existing
// tools, but the unencrypted form will be available only to the handle
// process, after the kernel decrypts the relevant memory locations in
// the handle's text portion."
//
// The cipher is AES-256-CTR. The keystream position for a text byte is
// its offset within its object member, so the same bytes are skipped at
// encryption time (relocation offsets within the object) and at
// decryption time (relocation holes recorded by the linker as final
// addresses in the Placement): XOR with an identical keystream at
// identical positions is self-inverse, and the 4-byte relocation
// windows — patched by the linker after encryption — stay plaintext
// throughout.
package modcrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/obj"
)

// Keystore maps key IDs to AES keys. The SecModule kernel layer owns
// one ("Once the SecModules are registered, the secret keys for each
// encrypted segment in m exist only in kernel space", section 4.4).
type Keystore struct {
	keys map[string][]byte
}

// NewKeystore returns an empty keystore.
func NewKeystore() *Keystore { return &Keystore{keys: map[string][]byte{}} }

// Add registers key material under id. Any length is accepted; the key
// is expanded to 32 bytes by SHA-256 ("extreme care must be taken when
// choosing the pseudo-random keys" — callers should still supply high
// entropy input).
func (ks *Keystore) Add(id string, key []byte) {
	sum := sha256.Sum256(key)
	ks.keys[id] = sum[:]
}

// Has reports whether id is registered.
func (ks *Keystore) Has(id string) bool {
	_, ok := ks.keys[id]
	return ok
}

// Key returns the expanded key for id.
func (ks *Keystore) Key(id string) ([]byte, error) {
	k, ok := ks.keys[id]
	if !ok {
		return nil, fmt.Errorf("modcrypt: no key %q", id)
	}
	return k, nil
}

// keystream generates n bytes of AES-CTR keystream for keyID starting
// at stream position 0. The IV is derived from the key ID so distinct
// members (distinct key IDs) never share keystream.
func keystream(key []byte, keyID string, n int) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("modcrypt: %w", err)
	}
	ivSum := sha256.Sum256([]byte("iv:" + keyID))
	stream := cipher.NewCTR(block, ivSum[:aes.BlockSize])
	out := make([]byte, n)
	stream.XORKeyStream(out, out) // keystream == encryption of zeros
	return out, nil
}

// xorOutsideHoles XORs stream into text except inside the 4-byte
// relocation windows starting at each offset in holes. holes may be
// unsorted and may overlap. It is sorted in place, so callers pass a
// slice of their own, and then walked once as the byte index advances.
func xorOutsideHoles(text, stream []byte, holes []uint32) {
	slices.Sort(holes)
	j := 0 // holes[:j] start at or before the current byte
	for i := range text {
		off := uint32(i)
		for j < len(holes) && holes[j] <= off {
			j++
		}
		// Of the windows started so far, the last to start ends last.
		if j > 0 && off-holes[j-1] < 4 {
			continue
		}
		text[i] ^= stream[i]
	}
}

// EncryptObject encrypts o's text in place (except relocation windows),
// marks it encrypted under keyID, and registers the key. o must not
// already be encrypted. Objects with no text (data-only members) are
// marked but unchanged.
func EncryptObject(ks *Keystore, o *obj.Object, keyID string, key []byte) error {
	if o.Encrypted {
		return fmt.Errorf("modcrypt: object %s already encrypted", o.Name)
	}
	ks.Add(keyID, key)
	expanded, _ := ks.Key(keyID)
	stream, err := keystream(expanded, keyID, len(o.Text))
	if err != nil {
		return err
	}
	var holes []uint32
	for _, r := range o.Relocs {
		if r.Section == "text" {
			holes = append(holes, r.Offset)
		}
	}
	xorOutsideHoles(o.Text, stream, holes)
	o.Encrypted = true
	o.KeyID = keyID
	return nil
}

// EncryptArchive encrypts every text-bearing member of a copy of lib
// under per-member key IDs derived from baseKeyID, returning the
// encrypted archive. The original is untouched.
func EncryptArchive(ks *Keystore, lib *obj.Archive, baseKeyID string, key []byte) (*obj.Archive, error) {
	out := &obj.Archive{Name: lib.Name}
	for _, m := range lib.Members {
		c := m.Clone()
		if len(c.Text) > 0 {
			id := fmt.Sprintf("%s/%s", baseKeyID, c.Name)
			if err := EncryptObject(ks, c, id, key); err != nil {
				return nil, err
			}
		}
		out.Add(c)
	}
	return out, nil
}

// DecryptedBlocks reports the number of 16-byte AES blocks processed
// when decrypting an image's encrypted placements — the cycle-cost unit
// for clock.CostAESPerBlock.
func DecryptedBlocks(im *obj.Image) int {
	n := 0
	for _, pl := range im.Placements {
		if pl.Encrypted {
			n += (int(pl.Size) + 15) / 16
		}
	}
	return n
}

// DecryptImageText decrypts the encrypted placements of a linked image
// in place: for every placement marked encrypted, the keystream for its
// key ID is XORed over the placement's bytes except the linker-patched
// relocation windows. This is the kernel-side step that happens only
// into handle-owned text.
func DecryptImageText(ks *Keystore, im *obj.Image) error {
	for _, pl := range im.Placements {
		if !pl.Encrypted || pl.Section != "text" {
			continue
		}
		key, err := ks.Key(pl.KeyID)
		if err != nil {
			return err
		}
		stream, err := keystream(key, pl.KeyID, int(pl.Size))
		if err != nil {
			return err
		}
		// Hole addresses are image-absolute; convert to member offsets.
		// This copy, never pl.RelocHoles, is what gets sorted.
		holes := make([]uint32, 0, len(pl.RelocHoles))
		for _, h := range pl.RelocHoles {
			holes = append(holes, h-pl.Addr)
		}
		segOff := pl.Addr - im.TextBase
		xorOutsideHoles(im.Text[segOff:segOff+pl.Size], stream, holes)
	}
	return nil
}

// EncryptedPlacements reports whether the image contains any encrypted
// text placement (i.e. whether DecryptImageText has work to do).
func EncryptedPlacements(im *obj.Image) bool {
	for _, pl := range im.Placements {
		if pl.Encrypted && pl.Section == "text" {
			return true
		}
	}
	return false
}

// MarkDecrypted clears the Encrypted flags of an image's placements
// after DecryptImageText, so a second decryption pass (which would
// re-encrypt, XOR being self-inverse) cannot happen accidentally.
func MarkDecrypted(im *obj.Image) {
	for i := range im.Placements {
		im.Placements[i].Encrypted = false
	}
}
