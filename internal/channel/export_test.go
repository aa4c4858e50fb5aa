package channel

import (
	"context"

	"gosplice/internal/core"
)

// RecomputeDigestForTest lets external tests play the attacker who
// fixes up a tampered manifest's self-digest, proving the signature
// still catches it.
func RecomputeDigestForTest(m *Manifest) (string, error) {
	return m.computeDigest()
}

// SyncOnce is the tests' one-shot subscriber: a Client over cfg, bound
// to mgr at channel position pos and synced once.
func SyncOnce(ctx context.Context, cfg ClientConfig, mgr *core.Manager, pos int) ([]*core.Update, error) {
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Bind(mgr, pos)
	return c.Sync(ctx)
}
