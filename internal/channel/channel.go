// Package channel implements the paper's closing proposal (section 8):
// "one could use Ksplice to create hot update packages for common
// starting kernel configurations. People who subscribe their systems to
// these updates would be able to transparently receive kernel hot
// updates" — a distribution channel of update tarballs per kernel
// release, and a subscriber that brings a machine up to date.
//
// A channel is a directory holding a channel.json manifest, the update
// tarballs it names in application order, and (for prebuilt channels) a
// blobs/ directory of content-addressed artifacts. Publishing builds
// each update against the accumulated previously-patched source (the
// section 5.4 requirement), so subscribers apply them strictly in
// order; a machine's position in the channel is simply how many updates
// it has applied.
//
// Prebuilt channels close the fleet cost model: the publisher exports
// the base release's compiled units and linked boot image (keyed
// exactly as the build caches key them) plus binary deltas between
// adjacent tarballs, so a subscriber boots without ever invoking the
// compiler and reconstructs most tarballs from small deltas — build
// once, run everywhere. Positions past the base are hot updates, so the
// base set is the only prebuilt content a subscriber installs.
//
// Every manifest entry carries the sha256 digest and size of its
// tarball, every artifact and delta its own digest, and the manifest a
// digest of itself (plus, optionally, an offline ed25519 signature), so
// integrity — and, with a pinned key, authorship — is end to end:
// whatever transport delivered the bytes, the Client verifies them
// before they are interpreted. All publisher writes are atomic (temp
// file + rename), so a crashed publish never leaves a half-written
// manifest, tarball, or blob behind.
package channel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/diffutil"
	"gosplice/internal/durable"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

// Manifest is the channel's ordered update list.
type Manifest struct {
	// KernelVersion names the release the channel serves.
	KernelVersion string `json:"kernel_version"`
	// Updates lists tarball file names in application order.
	Updates []Entry `json:"updates"`
	// Prebuilt lists the base release's compiled units and linked boot
	// image as content-addressed blobs, so a subscriber boots the
	// release without a compiler. Empty for source-only channels.
	Prebuilt []Artifact `json:"prebuilt,omitempty"`
	// Deltas advertises binary deltas between the tarballs at adjacent
	// manifest positions: a subscriber already holding the tarball with
	// BaseSha256 reconstructs ResultSha256 from the (much smaller) delta
	// blob instead of fetching it whole.
	Deltas []DeltaEntry `json:"deltas,omitempty"`
	// PublicKey is the hex ed25519 public key of the signing publisher
	// (informational — subscribers verify against their own pinned key).
	PublicKey string `json:"public_key,omitempty"`
	// Signature is the hex ed25519 signature over the manifest's
	// canonical digest. Offline trust: the serving machine never holds
	// the signing key.
	Signature string `json:"signature,omitempty"`
	// Digest is the hex sha256 of the manifest's own canonical encoding
	// (this struct marshaled with Digest and Signature empty). It lets a
	// subscriber detect a truncated or tampered manifest wherever it
	// came from. DecodeManifest refuses a manifest without one.
	Digest string `json:"digest,omitempty"`
}

// Entry is one published update.
type Entry struct {
	Name string `json:"name"`
	File string `json:"file"`
	// CVE is the advisory the update fixes (informational).
	CVE string `json:"cve,omitempty"`
	// PatchLines is the source patch length.
	PatchLines int `json:"patch_lines"`
	// CustomCode marks Table 1-style updates that carry hooks.
	CustomCode bool `json:"custom_code,omitempty"`
	// Sha256 is the hex digest of the tarball bytes; Size their length.
	// The Client refuses to hand bytes that fail either check to Apply.
	Sha256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Artifact is one content-addressed prebuilt build artifact.
type Artifact struct {
	// Kind is the store artifact kind: srctree.PrebuiltUnit or
	// srctree.PrebuiltImage.
	Kind string `json:"kind"`
	// Unit is the source path for unit artifacts (informational).
	Unit string `json:"unit,omitempty"`
	// StoreKey is the build-cache key the subscriber files the artifact
	// under, after which its own cached builds hit instead of compiling.
	StoreKey string `json:"store_key"`
	// Sha256 addresses the encoded payload at /blob/<sha256> and
	// verifies it end to end; Size is its length.
	Sha256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// DeltaEntry advertises one binary delta blob (diffutil.MakeDelta
// format, self-verifying) between two published tarballs.
type DeltaEntry struct {
	// BaseSha256 identifies the blob the delta applies against;
	// ResultSha256 the blob it reconstructs.
	BaseSha256   string `json:"base_sha256"`
	ResultSha256 string `json:"result_sha256"`
	// Sha256 addresses and verifies the delta blob itself; Size is its
	// length.
	Sha256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// DeltaFor returns the advertised delta reconstructing the tarball with
// the given digest, or nil.
func (m *Manifest) DeltaFor(resultSha256 string) *DeltaEntry {
	for i := range m.Deltas {
		if m.Deltas[i].ResultSha256 == resultSha256 {
			return &m.Deltas[i]
		}
	}
	return nil
}

// blobAdvertised reports whether the manifest names digest as a
// prebuilt artifact or delta blob (tarballs are looked up separately).
// The server refuses to serve blobs the manifest does not advertise.
func (m *Manifest) blobAdvertised(digest string) bool {
	for i := range m.Prebuilt {
		if m.Prebuilt[i].Sha256 == digest {
			return true
		}
	}
	for i := range m.Deltas {
		if m.Deltas[i].Sha256 == digest {
			return true
		}
	}
	return false
}

const (
	manifestName = "channel.json"
	blobsDirName = "blobs"
)

// computeDigest returns the manifest's canonical digest: the sha256 of
// its JSON encoding with the Digest and Signature fields cleared (the
// signature is over the digest, so it cannot be under it).
func (m *Manifest) computeDigest() (string, error) {
	c := *m
	c.Digest = ""
	c.Signature = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Verify checks the manifest's self-digest.
func (m *Manifest) Verify() error {
	want, err := m.computeDigest()
	if err != nil {
		return err
	}
	if m.Digest != want {
		return fmt.Errorf("channel: manifest digest %.12s… does not match contents (%.12s…)", m.Digest, want)
	}
	return nil
}

// DecodeManifest parses and verifies manifest bytes. Every manifest
// carries its self-digest, and every update, artifact, and delta a
// digest and a positive size; one that lacks any of them is refused.
func DecodeManifest(b []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("channel: manifest: %w", err)
	}
	if m.Digest == "" {
		return nil, fmt.Errorf("channel: manifest carries no digest")
	}
	for _, e := range m.Updates {
		if err := checkAddress("update "+e.Name, e.Sha256, e.Size); err != nil {
			return nil, err
		}
	}
	for _, a := range m.Prebuilt {
		if a.StoreKey == "" {
			return nil, fmt.Errorf("channel: manifest: artifact %s has no store key", a.Sha256)
		}
		if err := checkAddress("artifact "+a.StoreKey, a.Sha256, a.Size); err != nil {
			return nil, err
		}
	}
	for _, d := range m.Deltas {
		if err := checkAddress("delta onto "+d.ResultSha256, d.Sha256, d.Size); err != nil {
			return nil, err
		}
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkAddress refuses a manifest item that is not content-addressed:
// its digest must be a hex sha256 and its size positive.
func checkAddress(what, digest string, size int64) error {
	if b, err := hex.DecodeString(digest); err != nil || len(b) != sha256.Size {
		return fmt.Errorf("channel: manifest: %s has no sha256 digest", what)
	}
	if size <= 0 {
		return fmt.Errorf("channel: manifest: %s has size %d", what, size)
	}
	return nil
}

// Publisher accumulates a channel: each Publish builds the next update
// against the previously-patched source and writes it into the directory.
type Publisher struct {
	Dir string
	// SignKey, when set before the first Publish, signs every manifest
	// write with offline ed25519 (see sign.go). The serving machine
	// needs only the directory; the key never leaves the publisher.
	SignKey SignKey
	// NoPrebuilt publishes a source-only channel: no prebuilt artifact
	// blobs and no binary deltas. Subscribers then build from source, as
	// channels always did before artifacts existed.
	NoPrebuilt bool

	manifest Manifest
	base     *srctree.Tree // the release's unpatched source
	tree     *srctree.Tree // base plus every published patch
	prevTar  []byte        // the newest published tarball: the next delta base
}

// NewPublisher opens (or creates) a channel directory for the release
// whose base source is tree. Stray temp files from a crashed publish are
// swept away; the manifest only ever names fully written tarballs, so the
// channel resumes cleanly from whatever the last atomic manifest rename
// recorded. A manifest that exists but fails to decode or verify is an
// error, never a fresh channel: republishing over it would strand every
// machine past the positions the new manifest names.
func NewPublisher(dir string, tree *srctree.Tree) (*Publisher, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash resume: remove half-written temp files an interrupted
	// publish left behind. They were never renamed into place, so
	// nothing references them.
	for _, d := range []string{dir, filepath.Join(dir, blobsDirName)} {
		if strays, err := filepath.Glob(filepath.Join(d, ".tmp-*")); err == nil {
			for _, s := range strays {
				os.Remove(s)
			}
		}
	}
	p := &Publisher{
		Dir:      dir,
		manifest: Manifest{KernelVersion: tree.Version},
		base:     tree.Clone(),
		tree:     tree.Clone(),
	}
	m, err := ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	// Resume an existing channel: replay its patches over the base tree,
	// keeping the newest tarball's bytes as the next delta base.
	if m.KernelVersion != tree.Version {
		return nil, fmt.Errorf("channel: directory serves %q, tree is %q", m.KernelVersion, tree.Version)
	}
	p.manifest = *m
	for _, e := range m.Updates {
		b, u, err := loadUpdateBytes(dir, e)
		if err != nil {
			return nil, err
		}
		p.tree, err = p.tree.Patch(u.PatchText)
		if err != nil {
			return nil, fmt.Errorf("channel: replaying %s: %w", e.Name, err)
		}
		p.prevTar = b
	}
	return p, nil
}

// ensurePrebuilt exports and publishes the base release's compiled
// units and boot image the first time a fresh prebuilt channel
// publishes. A resumed channel that was published source-only stays
// source-only — prebuilt channels are prebuilt from birth.
func (p *Publisher) ensurePrebuilt() error {
	if len(p.manifest.Updates) > 0 && len(p.manifest.Prebuilt) == 0 {
		p.NoPrebuilt = true
	}
	if p.NoPrebuilt || len(p.manifest.Prebuilt) > 0 {
		return nil
	}
	arts, err := srctree.ExportPrebuilt(p.base, codegen.KernelBuild(), kernel.KernelBase)
	if err != nil {
		return fmt.Errorf("channel: exporting base prebuilt artifacts: %w", err)
	}
	for _, a := range arts {
		digest, size, err := p.writeBlob(a.Payload)
		if err != nil {
			return err
		}
		p.manifest.Prebuilt = append(p.manifest.Prebuilt, Artifact{
			Kind: a.Kind, Unit: a.Unit, StoreKey: a.StoreKey,
			Sha256: digest, Size: size,
		})
	}
	return nil
}

// writeBlob stores payload content-addressed under blobs/. Blobs are
// immutable by construction, so an existing file short-circuits.
func (p *Publisher) writeBlob(payload []byte) (digest string, size int64, err error) {
	digest, size = core.TarDigest(payload)
	path := filepath.Join(p.Dir, blobsDirName, digest)
	if _, err := os.Stat(path); err == nil {
		return digest, size, nil
	}
	if err := os.MkdirAll(filepath.Join(p.Dir, blobsDirName), 0o755); err != nil {
		return "", 0, err
	}
	if err := durable.WriteFile(path, payload, 0o644, nil, "", ""); err != nil {
		return "", 0, err
	}
	return digest, size, nil
}

// publishDelta encodes and stores the previous tarball → b as a delta
// blob and advertises it, unless there is no previous tarball or the
// delta does not actually save bytes.
func (p *Publisher) publishDelta(b []byte) error {
	if len(p.prevTar) == 0 {
		return nil
	}
	d := diffutil.MakeDelta(p.prevTar, b)
	if len(d) >= len(b) {
		return nil
	}
	digest, size, err := p.writeBlob(d)
	if err != nil {
		return err
	}
	baseDigest, _ := core.TarDigest(p.prevTar)
	resultDigest, _ := core.TarDigest(b)
	p.manifest.Deltas = append(p.manifest.Deltas, DeltaEntry{
		BaseSha256: baseDigest, ResultSha256: resultDigest,
		Sha256: digest, Size: size,
	})
	return nil
}

// Publish converts a source patch into the channel's next update. The
// tarball — and, for prebuilt channels, its delta blob — is written
// atomically before the manifest names it, so a crash at any point
// leaves the channel consistent: either the update is fully published
// or it is absent.
func (p *Publisher) Publish(name, cve, patchText string) (*core.Update, error) {
	if err := p.ensurePrebuilt(); err != nil {
		return nil, err
	}
	// The build cache is sound here: builds are bit-for-bit
	// deterministic, so successive publishes of one release share the
	// accumulated pre builds.
	u, err := core.CreateUpdate(p.tree, patchText, core.CreateOptions{Name: name, BuildCache: true})
	if err != nil {
		return nil, err
	}
	b, digest, size, err := u.EncodeTar()
	if err != nil {
		return nil, err
	}
	file := u.Name + ".tar"
	if err := durable.WriteFile(filepath.Join(p.Dir, file), b, 0o644, nil, "", ""); err != nil {
		return nil, err
	}
	next, err := p.tree.Patch(patchText)
	if err != nil {
		return nil, err
	}
	if !p.NoPrebuilt {
		if err := p.publishDelta(b); err != nil {
			return nil, err
		}
	}
	p.tree = next
	p.prevTar = b
	p.manifest.Updates = append(p.manifest.Updates, Entry{
		Name: u.Name, File: file, CVE: cve,
		PatchLines: u.PatchLines, CustomCode: u.HasHooks(),
		Sha256: digest, Size: size,
	})
	return u, p.writeManifest()
}

func (p *Publisher) writeManifest() error {
	if p.SignKey != nil {
		p.manifest.PublicKey = p.SignKey.PublicHex()
	}
	digest, err := p.manifest.computeDigest()
	if err != nil {
		return err
	}
	p.manifest.Digest = digest
	if p.SignKey != nil {
		p.manifest.Signature = p.SignKey.signDigest(digest)
	}
	b, err := json.MarshalIndent(&p.manifest, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(p.Dir, manifestName), append(b, '\n'), 0o644, nil, "", "")
}

// ReadManifest loads and verifies a channel directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("channel: %s: %w", dir, err)
	}
	return m, nil
}

// loadUpdateBytes reads one tarball from a channel directory, verified
// against its manifest entry, returning both the raw bytes and the
// parsed update.
func loadUpdateBytes(dir string, e Entry) ([]byte, *core.Update, error) {
	b, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, nil, err
	}
	u, err := core.ReadTarVerified(b, e.Sha256, e.Size)
	if err != nil {
		return nil, nil, fmt.Errorf("channel: %s: %w", e.Name, err)
	}
	return b, u, nil
}
