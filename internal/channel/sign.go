package channel

// Offline manifest signing. The publisher signs each manifest's
// canonical digest with an ed25519 key that never leaves the publishing
// machine; mirrors serve plain files. A subscriber that pins the public
// key refuses manifests that are unsigned or signed by anyone else, so
// a compromised mirror can at worst withhold updates, never forge them
// — the transport is untrusted end to end, exactly like the tarball
// digests, but for authorship instead of integrity.

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"

	"gosplice/internal/durable"
)

// SignKey is a channel signing key (an ed25519 private key).
type SignKey ed25519.PrivateKey

// VerifyKey is a pinned channel public key.
type VerifyKey ed25519.PublicKey

// GenerateSignKey creates a fresh signing key.
func GenerateSignKey() (SignKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return SignKey(priv), nil
}

// PublicHex returns the hex public half, the form manifests carry and
// key files store.
func (k SignKey) PublicHex() string {
	return hex.EncodeToString(ed25519.PrivateKey(k).Public().(ed25519.PublicKey))
}

// signDigest signs a manifest's canonical digest string.
func (k SignKey) signDigest(digest string) string {
	return hex.EncodeToString(ed25519.Sign(ed25519.PrivateKey(k), []byte(digest)))
}

// VerifySignature checks that the manifest carries a valid signature by
// key over its (already content-verified) digest. Unsigned manifests
// fail: pinning a key means plain manifests are no longer acceptable.
func (m *Manifest) VerifySignature(key VerifyKey) error {
	if len(key) != ed25519.PublicKeySize {
		return fmt.Errorf("channel: bad verify key length %d", len(key))
	}
	if m.Signature == "" {
		return errors.New("channel: manifest is unsigned but a verify key is pinned")
	}
	if m.Digest == "" {
		return errors.New("channel: signed manifest carries no digest")
	}
	sig, err := hex.DecodeString(m.Signature)
	if err != nil || len(sig) != ed25519.SignatureSize {
		return errors.New("channel: malformed manifest signature")
	}
	if !ed25519.Verify(ed25519.PublicKey(key), []byte(m.Digest), sig) {
		return errors.New("channel: manifest signature does not verify against the pinned key")
	}
	return nil
}

// ParseVerifyKeyHex parses a hex public key — the form manifests
// advertise in their PublicKey field and WriteSignKey's .pub files hold.
func ParseVerifyKeyHex(s string) (VerifyKey, error) {
	k, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil || len(k) != ed25519.PublicKeySize {
		return nil, errors.New("channel: not a hex ed25519 public key")
	}
	return VerifyKey(k), nil
}

// Key files are single hex lines: the 64-byte private seed+public
// concatenation for signing keys, the 32-byte public key for verify
// keys — scp-able, diff-able, no parser to get wrong.

// WriteSignKey stores k at path (0600) and its public half at
// path+".pub", each via an fsynced atomic rename — a keygen killed
// mid-write never leaves a torn key file.
func WriteSignKey(path string, k SignKey) error {
	if err := durable.WriteFile(path, []byte(hex.EncodeToString(k)+"\n"), 0o600, nil, "", ""); err != nil {
		return err
	}
	return durable.WriteFile(path+".pub", []byte(k.PublicHex()+"\n"), 0o644, nil, "", "")
}

// LoadSignKey reads a signing key written by WriteSignKey.
func LoadSignKey(path string) (SignKey, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, err := hex.DecodeString(strings.TrimSpace(string(b)))
	if err != nil || len(k) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("channel: %s is not a signing key file", path)
	}
	return SignKey(k), nil
}

// LoadVerifyKey reads a public key file (the path+".pub" half).
func LoadVerifyKey(path string) (VerifyKey, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, err := hex.DecodeString(strings.TrimSpace(string(b)))
	if err != nil || len(k) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("channel: %s is not a public key file", path)
	}
	return VerifyKey(k), nil
}
