package policy

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Credential signing. Real KeyNote signs assertions with the
// authorizer's private key; the reproduction uses HMAC-SHA256 with
// per-principal secrets held by the trusted host (the paper's section
// 4.4: the operating system hosting the module must be a trusted
// party). The evaluation semantics are unaffected by the primitive.

// Keystore holds per-principal signing secrets. The SecModule kernel
// layer owns one; it never leaves kernel space.
type Keystore struct {
	secrets map[string][]byte
}

// NewKeystore returns an empty keystore.
func NewKeystore() *Keystore {
	return &Keystore{secrets: map[string][]byte{}}
}

// AddPrincipal registers (or replaces) a principal's signing secret.
func (ks *Keystore) AddPrincipal(name string, secret []byte) {
	ks.secrets[name] = append([]byte(nil), secret...)
}

const sigScheme = "hmac-sha256:"

// signedBody returns the canonical byte string covered by the
// signature: the source text up to (not including) the signature field.
func signedBody(src string) string {
	lower := strings.ToLower(src)
	if idx := strings.Index(lower, "signature:"); idx >= 0 {
		return src[:idx]
	}
	return src
}

// Sign produces the signature value for an assertion authored by
// authorizer, whose secret must be in the keystore.
func (ks *Keystore) Sign(authorizer, assertionSrc string) (string, error) {
	secret, ok := ks.secrets[authorizer]
	if !ok {
		return "", fmt.Errorf("policy: no secret for principal %q", authorizer)
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(signedBody(assertionSrc)))
	return sigScheme + hex.EncodeToString(mac.Sum(nil)), nil
}

// SignAssertion parses src, signs it as its authorizer, and returns the
// completed credential text (src must not already carry a signature).
func (ks *Keystore) SignAssertion(src string) (string, error) {
	a, err := ParseAssertion(src)
	if err != nil {
		return "", err
	}
	if a.Signature != "" {
		return "", fmt.Errorf("policy: assertion already signed")
	}
	sig, err := ks.Sign(a.Authorizer, src)
	if err != nil {
		return "", err
	}
	if !strings.HasSuffix(src, "\n") {
		src += "\n"
	}
	return src + "signature: \"" + sig + "\"\n", nil
}

// Verify checks a parsed assertion's signature against its authorizer's
// secret. Policy assertions (authorizer POLICY) are local and never
// signed; everything else must carry a valid signature. It returns the
// number of bytes MACed so the caller can charge cycles.
func (ks *Keystore) Verify(a *Assertion) (int, error) {
	if a.Authorizer == PolicyPrincipal {
		return 0, nil
	}
	if a.Signature == "" {
		return 0, fmt.Errorf("policy: credential from %q is unsigned", a.Authorizer)
	}
	want, err := ks.Sign(a.Authorizer, a.Source)
	if err != nil {
		return 0, err
	}
	body := signedBody(a.Source)
	got := a.Signature
	if !strings.HasPrefix(got, sigScheme) {
		got = sigScheme + got
	}
	if !hmac.Equal([]byte(want), []byte(got)) {
		return len(body), fmt.Errorf("policy: bad signature on credential from %q", a.Authorizer)
	}
	return len(body), nil
}

// VerifyAll verifies every assertion, returning total MACed bytes.
func (ks *Keystore) VerifyAll(as []*Assertion) (int, error) {
	total := 0
	for _, a := range as {
		n, err := ks.Verify(a)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
