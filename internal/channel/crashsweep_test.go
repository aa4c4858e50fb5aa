package channel

// The crash-point sweep: a subscriber is killed at every labeled crash
// point on its persistence paths (journal appends and compactions,
// blob-cache writes through the artifact store), then "rebooted" — a fresh kernel, a fresh client
// over the same state dir — and recovered through RestoreMachine. For
// every (label, nth-hit) pair the swept machine must converge to the
// channel head with memory byte-identical to a machine that never
// crashed. A discovery pass with a crashpoint.Counter learns which
// labels the scenario hits and how often, so the sweep is exhaustive
// by construction: a new crash point in the client's write paths is
// swept automatically, and a label the scenario never reaches fails
// the test rather than silently shrinking coverage.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// sweepUpdates is how many updates the sweep channel carries — enough
// that every journal op fires several times, small enough that the full
// label × hit matrix stays fast.
const sweepUpdates = 3

// minSweepCycles is the kill/reboot cycle count the 3-update scenario
// has always produced (EXPERIMENTS.md); a sweep that runs fewer has lost
// crash points or hits, even if every label is still reached.
const minSweepCycles = 26

// publishSweep builds an n-update channel for version.
func publishSweep(t *testing.T, version string, n int) string {
	t.Helper()
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)
	if len(cves) < n {
		t.Fatalf("version %s has only %d CVEs, want %d", version, len(cves), n)
	}
	for i := 0; i < n; i++ {
		if _, err := pub.Publish(cves[i].ID, cves[i].ID, cves[i].Patch()); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// memHash fingerprints the kernel's entire memory. Taken before any
// probes or stress runs — those mutate memory — so two machines that
// applied the same update sequence onto fresh boots hash identically.
func memHash(k *kernel.Kernel) [32]byte {
	k.Lock()
	defer k.Unlock()
	return sha256.Sum256(k.LockedMem().Bytes())
}

// sweepAttempt boots a fresh kernel over stateDir and drives it through
// the whole subscriber lifecycle — RestoreMachine then Sync — under the
// given crash hook. It returns the kernel, the position reached, and
// the death if the hook fired. The client is closed either way; on
// death, everything in memory is abandoned exactly as a real process
// kill would abandon it, leaving only the state dir behind.
func sweepAttempt(t *testing.T, chanDir, stateDir, version string, hook crashpoint.Hook) (*kernel.Kernel, int, *crashpoint.Death) {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	cl, err := NewClient(ClientConfig{
		Name:      "sweep",
		Transport: NewDirTransport(chanDir),
		StateDir:  stateDir,
		Crash:     hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	death := crashpoint.Catch(func() {
		if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if _, err := cl.Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	return k, cl.Position(), death
}

// TestCrashPointSweep is the exhaustive sweep: every client-path crash
// point × every hit count, one release.
func TestCrashPointSweep(t *testing.T) {
	version := cvedb.Versions[0]
	chanDir := publishSweep(t, version, sweepUpdates)

	// Reference machine: never crashes. Its memory hash is the target
	// every swept machine must reproduce.
	refK, refPos, refDeath := sweepAttempt(t, chanDir, t.TempDir(), version, nil)
	if refDeath != nil {
		t.Fatalf("reference run died: %v", refDeath)
	}
	if refPos != sweepUpdates {
		t.Fatalf("reference position %d, want head %d", refPos, sweepUpdates)
	}
	refHash := memHash(refK)

	// Determinism check: a second clean machine must hash identically,
	// or byte-identity below would be meaningless.
	k2, _, _ := sweepAttempt(t, chanDir, t.TempDir(), version, nil)
	if memHash(k2) != refHash {
		t.Fatal("two clean runs hash differently — kernel boot or apply is nondeterministic")
	}

	// Discovery: count how often the scenario hits each label.
	counter := crashpoint.NewCounter()
	sweepAttempt(t, chanDir, t.TempDir(), version, counter.Hook())
	counts := counter.Counts()

	cycles := 0
	for _, label := range crashpoint.Catalog() {
		// channel.* are the journal's; store.* the blob cache's, whose
		// store writes every blob. simstate.* has its own test.
		if !strings.HasPrefix(label, "channel.") && !strings.HasPrefix(label, "store.") {
			continue
		}
		hits := counts[label]
		if hits == 0 {
			t.Errorf("scenario never reaches crash point %s — sweep coverage shrank", label)
			continue
		}
		cycles += hits
		for n := 1; n <= hits; n++ {
			label, n := label, n
			t.Run(fmt.Sprintf("%s/%d", label, n), func(t *testing.T) {
				stateDir := t.TempDir()
				plan := crashpoint.NewPlan(label, n)
				hook := plan.Hook()

				// Attempt: must die at the scheduled point.
				_, _, death := sweepAttempt(t, chanDir, stateDir, version, hook)
				if death == nil {
					t.Fatalf("plan %s hit %d never fired", label, n)
				}
				if death.Label != label {
					t.Fatalf("died at %s, scheduled %s", death.Label, label)
				}

				// Reboot: fresh kernel, fresh client, same state dir, same
				// (now inert) hook. Recovery must converge to the head.
				k, pos, again := sweepAttempt(t, chanDir, stateDir, version, hook)
				if again != nil {
					t.Fatalf("recovery run died again: %v", again)
				}
				if pos != sweepUpdates {
					t.Fatalf("recovered to position %d, want head %d", pos, sweepUpdates)
				}
				if memHash(k) != refHash {
					t.Fatalf("recovered kernel memory differs from the never-crashed reference")
				}

				// A third boot over the same state dir replays the journal
				// alone (everything is committed now) and still matches.
				k3, pos3, _ := sweepAttempt(t, chanDir, stateDir, version, nil)
				if pos3 != sweepUpdates || memHash(k3) != refHash {
					t.Fatalf("second reboot diverged: position %d", pos3)
				}
			})
		}
	}
	if cycles < minSweepCycles {
		t.Errorf("sweep ran %d kill/reboot cycles, want at least %d", cycles, minSweepCycles)
	}
}

// TestClientCorruptStateRederives is the satellite regression test: a
// client whose journal is garbage must open (warn, not fail), report
// Corrupt, and converge from position zero.
func TestClientCorruptStateRederives(t *testing.T) {
	version := cvedb.Versions[0]
	chanDir := publishSweep(t, version, sweepUpdates)
	stateDir := t.TempDir()

	// A converged machine first, so the state dir holds a real journal.
	sweepAttempt(t, chanDir, stateDir, version, nil)

	// Scribble over it.
	if err := os.WriteFile(JournalPath(stateDir), []byte("\x00\xff not a journal\n{half"), 0o644); err != nil {
		t.Fatal(err)
	}

	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	cl, err := NewClient(ClientConfig{
		Name:      "corrupt",
		Transport: NewDirTransport(chanDir),
		StateDir:  stateDir,
	})
	if err != nil {
		t.Fatalf("NewClient over a corrupt journal: %v", err)
	}
	defer cl.Close()
	rec := cl.Recovery()
	if !rec.Corrupt || rec.Position != 0 {
		t.Fatalf("recovery = %+v, want Corrupt at position 0", rec)
	}
	ctx := context.Background()
	if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Position() != sweepUpdates {
		t.Fatalf("position %d after re-derive, want %d", cl.Position(), sweepUpdates)
	}
	// The degrade is visible in telemetry.
	snap := cl.Registry().Snapshot()
	if snap.CounterFamily(MetricTornState) == 0 {
		t.Error("torn-state counter did not record the corrupt journal")
	}
	if snap.CounterFamily(MetricRecoveries) == 0 {
		t.Error("recoveries counter did not record the restore")
	}
}
