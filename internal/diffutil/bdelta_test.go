package diffutil

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// mutate returns a copy of b with roughly edits random byte-level edits
// (insertions, deletions, overwrites, and block moves) — the shape of
// change between two adjacent published blobs.
func mutate(rng *rand.Rand, b []byte, edits int) []byte {
	out := append([]byte(nil), b...)
	for e := 0; e < edits; e++ {
		if len(out) == 0 {
			out = append(out, byte(rng.Intn(256)))
			continue
		}
		switch rng.Intn(4) {
		case 0: // overwrite a run
			i := rng.Intn(len(out))
			n := 1 + rng.Intn(16)
			for j := i; j < len(out) && j < i+n; j++ {
				out[j] = byte(rng.Intn(256))
			}
		case 1: // insert a run
			i := rng.Intn(len(out) + 1)
			ins := make([]byte, 1+rng.Intn(64))
			rng.Read(ins)
			out = append(out[:i], append(ins, out[i:]...)...)
		case 2: // delete a run
			i := rng.Intn(len(out))
			n := 1 + rng.Intn(32)
			if i+n > len(out) {
				n = len(out) - i
			}
			out = append(out[:i], out[i+n:]...)
		case 3: // move a block (tar members reordering)
			if len(out) < 128 {
				continue
			}
			i := rng.Intn(len(out) - 64)
			n := 64
			blk := append([]byte(nil), out[i:i+n]...)
			out = append(out[:i], out[i+n:]...)
			j := rng.Intn(len(out) + 1)
			out = append(out[:j], append(blk, out[j:]...)...)
		}
	}
	return out
}

// TestDeltaRoundTripProperty: for random bases and random mutations of
// them, ApplyDelta(base, MakeDelta(base, target)) == target, and related
// targets produce deltas much smaller than the target itself.
func TestDeltaRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, rng.Intn(16<<10))
		rng.Read(base)
		var target []byte
		switch trial % 4 {
		case 0:
			target = mutate(rng, base, 1+rng.Intn(8))
		case 1: // unrelated blob: correctness must hold, size may not shrink
			target = make([]byte, rng.Intn(8<<10))
			rng.Read(target)
		case 2: // pure append (a growing log / added tar member)
			extra := make([]byte, rng.Intn(2<<10))
			rng.Read(extra)
			target = append(append([]byte(nil), base...), extra...)
		case 3: // pure prefix strip
			target = append([]byte(nil), base[rng.Intn(len(base)+1):]...)
		}
		d := MakeDelta(base, target)
		got, err := ApplyDelta(base, d, int64(len(target)))
		if err != nil {
			t.Fatalf("trial %d: ApplyDelta: %v (base=%d target=%d delta=%d)", trial, err, len(base), len(target), len(d))
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("trial %d: round trip produced different bytes", trial)
		}
		if trial%4 == 0 && len(target) > 4096 && len(d) > len(target)/2 {
			t.Fatalf("trial %d: delta of a lightly mutated %d-byte blob is %d bytes — no compression", trial, len(target), len(d))
		}
	}
}

func TestDeltaEdgeCases(t *testing.T) {
	cases := []struct{ base, target []byte }{
		{nil, nil},
		{nil, []byte("hello")},
		{[]byte("hello"), nil},
		{[]byte("hello"), []byte("hello")},
		{bytes.Repeat([]byte{0}, 4096), bytes.Repeat([]byte{0}, 8192)},
		{[]byte("short"), bytes.Repeat([]byte("abcdefgh"), 1024)},
	}
	for i, c := range cases {
		d := MakeDelta(c.base, c.target)
		got, err := ApplyDelta(c.base, d, int64(len(c.target)))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, c.target) {
			t.Fatalf("case %d: wrong reconstruction", i)
		}
	}
}

// TestDeltaIdenticalBlobIsTiny: the degenerate self-delta collapses to a
// header plus one copy op.
func TestDeltaIdenticalBlobIsTiny(t *testing.T) {
	b := bytes.Repeat([]byte("the quick brown fox "), 512)
	d := MakeDelta(b, b)
	if len(d) > 128 {
		t.Fatalf("self-delta of a %d-byte blob is %d bytes", len(b), len(d))
	}
}

// TestDeltaWrongBaseRefused: applying against any blob other than the
// true base is a typed *DeltaBaseError, the caller's fall-back-to-full
// signal.
func TestDeltaWrongBaseRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 4096)
	rng.Read(base)
	target := mutate(rng, base, 4)
	d := MakeDelta(base, target)
	wrong := append([]byte(nil), base...)
	wrong[100] ^= 1
	_, err := ApplyDelta(wrong, d, int64(len(target)))
	var be *DeltaBaseError
	if !errors.As(err, &be) {
		t.Fatalf("wrong base: got %v, want *DeltaBaseError", err)
	}
}

// TestDeltaCorruptionRefused: every single-bit corruption of the delta
// either still reconstructs the exact target (a flip in dead space) or
// returns an error — never silently wrong bytes. Truncations likewise.
func TestDeltaCorruptionRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 8192)
	rng.Read(base)
	target := mutate(rng, base, 6)
	d := MakeDelta(base, target)

	for trial := 0; trial < 300; trial++ {
		c := append([]byte(nil), d...)
		c[rng.Intn(len(c))] ^= 1 << rng.Intn(8)
		got, err := ApplyDelta(base, c, int64(len(target)))
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("bit-flipped delta reconstructed wrong bytes without error")
		}
	}
	for cut := 0; cut < len(d); cut += 7 {
		got, err := ApplyDelta(base, d[:cut], int64(len(target)))
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("delta truncated to %d bytes reconstructed wrong bytes without error", cut)
		}
	}
	if _, err := ApplyDelta(base, []byte("not a delta at all"), int64(len(target))); !errors.Is(err, ErrNotDelta) {
		t.Fatalf("garbage input: got %v, want ErrNotDelta", err)
	}
}

// TestDeltaDeterministic: the encoder is a pure function — manifests
// advertise delta digests, so byte-stable output is part of the format.
func TestDeltaDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 10000)
	rng.Read(base)
	target := mutate(rng, base, 10)
	d1 := MakeDelta(base, target)
	d2 := MakeDelta(base, target)
	if !bytes.Equal(d1, d2) {
		t.Fatal("MakeDelta is not deterministic")
	}
}

// hostileDelta assembles a GSD1 delta against base that declares a
// targetLen-byte target with digest target, and carries ops as its
// (compressed) op stream.
func hostileDelta(base []byte, target [sha256.Size]byte, targetLen uint64, ops []byte) []byte {
	sum := sha256.Sum256(base)
	d := append([]byte(deltaMagic), sum[:]...)
	d = append(d, target[:]...)
	d = binary.AppendUvarint(d, targetLen)
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestCompression)
	w.Write(ops)
	w.Close()
	return append(d, buf.Bytes()...)
}

// TestDeltaHostileSizeBounded: the decoder allocates by the size the
// caller expects, never by what the delta claims. A tiny delta that
// declares a 1 GiB target, one whose declared size is right but whose op
// stream inflates to megabytes of empty ops, and an otherwise valid
// delta carrying one empty op (which the op-stream bound assumes cannot
// exist) are all refused, with well under 1 MiB allocated.
func TestDeltaHostileSizeBounded(t *testing.T) {
	base := []byte("the base blob")
	const want = 100
	target := bytes.Repeat([]byte{'x'}, want)
	sum := sha256.Sum256(target)
	lit := append([]byte{opLit, want}, target...)
	cases := []struct {
		name  string
		delta []byte
	}{
		{"declares 1 GiB", hostileDelta(base, sum, 1<<30, lit)},
		{"empty-op bomb", hostileDelta(base, sum, want, bytes.Repeat([]byte{opLit, 0}, 4<<20))},
		{"one empty op", hostileDelta(base, sum, want, append([]byte{opCopy, 0, 0}, lit...))},
	}
	if got, err := ApplyDelta(base, hostileDelta(base, sum, want, lit), want); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("the well-formed control delta does not apply: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if len(c.delta) > 64<<10 {
				t.Fatalf("hostile delta is %d bytes; it should be tiny", len(c.delta))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ApplyDelta(base, c.delta, want)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile delta accepted")
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("refusing it allocated %d bytes, want under 1 MiB", n)
			}
		})
	}
}
