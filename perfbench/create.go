package main

// create-cold: ksplice-create without a build cache directory, then the
// update's whole life on a kernel clone. Each cycle takes the next CVE of
// a seeded permutation of all 64, builds pre and post from source in a
// fresh in-memory build store, and runs probe/exploit -> Apply ->
// probe/exploit -> stress_main -> Undo -> probe. The MiniC/codegen
// compile in srctree dominates; apply, run-pre and SIM32 are present but
// small; no channel layer runs.

import (
	"fmt"
	"math/rand"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// stressRounds is the stress_main workload run on every patched kernel.
const stressRounds = 20

// guestBudget bounds one probe or exploit task's instructions.
const guestBudget = 50_000_000

type createFx struct {
	tmpl  map[string]*kernel.Kernel // release -> kernel booted at set-up
	order []*cvedb.CVE
}

func setupCreate(c *config) (fixture, error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	fx := &createFx{tmpl: map[string]*kernel.Kernel{}}
	for _, v := range cvedb.Versions {
		k, err := bootRelease(v)
		if err != nil {
			return nil, err
		}
		fx.tmpl[v] = k
	}
	all := cvedb.All()
	for _, i := range rand.New(rand.NewSource(c.seed)).Perm(len(all)) {
		fx.order = append(fx.order, all[i])
	}
	return fx, nil
}

func (fx *createFx) close() {}

// linkRelease builds and links a release's boot kernel through the
// process-wide build store.
func linkRelease(version string) (*srctree.BuildResult, *obj.Image, error) {
	br, err := srctree.BuildCached(cvedb.Tree(version), codegen.KernelBuild())
	if err != nil {
		return nil, nil, fmt.Errorf("building %s: %w", version, err)
	}
	im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
	if err != nil {
		return nil, nil, fmt.Errorf("linking %s: %w", version, err)
	}
	return br, im, nil
}

// bootRelease builds, links and boots a release through the process-wide
// build store.
func bootRelease(version string) (*kernel.Kernel, error) {
	br, im, err := linkRelease(version)
	if err != nil {
		return nil, err
	}
	k, err := kernel.BootImage(br, im, 0)
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", version, err)
	}
	return k, nil
}

func (fx *createFx) op(m *meter, i int) {
	cve := fx.order[i%len(fx.order)]
	m.attempt()
	root := m.root("create-cold.cycle", telemetry.A("cve", cve.ID))
	defer root.End()
	t0 := time.Now()
	u, createMS, err := fx.create(m, root, cve)
	if err == nil {
		err = fx.lifecycle(m, root, cve, u)
	}
	if err != nil {
		m.fail("%s: %v", cve.ID, err)
		return
	}
	d := time.Since(t0)
	m.sample("op", ms(d))
	m.timed(1, d)
	m.sample("create", createMS)
	m.done()
}

// create builds the update in a fresh build store and returns it with
// CreateUpdate's time in ms. The traced pass builds pre and post first,
// so CreateUpdate's own time is the object diff and packaging.
func (fx *createFx) create(m *meter, root *telemetry.Span, cve *cvedb.CVE) (*core.Update, float64, error) {
	srctree.SetStore(store.MustNew(store.Options{}))
	c0 := srctree.Counters()
	tree := cvedb.Tree(cve.Version)
	if m.tr != nil {
		sp := root.Child("srctree.build")
		t := time.Now()
		err := buildPrePost(tree, cve.Patch())
		sp.End()
		m.add("srctree.build_ms", msSince(t))
		if err != nil {
			return nil, 0, err
		}
	}
	sp := root.Child("core.create")
	t := time.Now()
	u, err := core.CreateUpdate(tree, cve.Patch(), core.CreateOptions{Name: "ksplice-" + cve.ID, BuildCache: true})
	sp.End()
	createMS := msSince(t)
	if err != nil {
		return nil, 0, fmt.Errorf("create: %w", err)
	}
	if m.tr != nil {
		m.add("core.diff_ms", createMS)
	}
	m.add("core.units_changed", float64(len(u.Units)))
	addBuildCounters(m, c0)
	return u, createMS, nil
}

// buildPrePost builds the tree before and after the patch with the
// ksplice-create options, through the active build store.
func buildPrePost(tree *srctree.Tree, patch string) error {
	if _, err := srctree.BuildCached(tree, codegen.KspliceBuild()); err != nil {
		return fmt.Errorf("pre build: %w", err)
	}
	post, err := tree.Patch(patch)
	if err != nil {
		return fmt.Errorf("patching source: %w", err)
	}
	if _, err := srctree.BuildCached(post, codegen.KspliceBuild()); err != nil {
		return fmt.Errorf("post build: %w", err)
	}
	return nil
}

// addBuildCounters adds the build-cache and store activity since c0.
func addBuildCounters(m *meter, c0 srctree.CacheCounters) {
	c1 := srctree.Counters()
	m.add("srctree.units_compiled", float64(c1.UnitMisses-c0.UnitMisses))
	m.add("srctree.unit_hit_ratio/num", float64(c1.UnitHits+c1.UnitDiskHits-c0.UnitHits-c0.UnitDiskHits))
	m.add("srctree.unit_hit_ratio/den", float64(c1.UnitHits+c1.UnitDiskHits+c1.UnitMisses-c0.UnitHits-c0.UnitDiskHits-c0.UnitMisses))
	m.add("srctree.link_misses", float64(c1.LinkMisses-c0.LinkMisses))
	s0, s1 := c0.Store, c1.Store
	if s1.MemHits+s1.DiskHits+s1.Misses < s0.MemHits+s0.DiskHits+s0.Misses {
		s0 = store.Stats{} // the active store was replaced since c0
	}
	m.add("store.hits", float64(s1.MemHits+s1.DiskHits-s0.MemHits-s0.DiskHits))
	m.add("store.misses", float64(s1.Misses-s0.Misses))
	m.add("store.evictions", float64(s1.Evictions-s0.Evictions))
}

// lifecycle runs the update through a clone of its release kernel and
// checks every gate.
func (fx *createFx) lifecycle(m *meter, root *telemetry.Span, cve *cvedb.CVE, u *core.Update) error {
	sp := root.Child("kernel.clone")
	t := time.Now()
	k, err := fx.tmpl[cve.Version].Clone()
	sp.End()
	m.sample("kernel.clone_us", us(time.Since(t)))
	if err != nil {
		return fmt.Errorf("clone: %w", err)
	}
	mgr := core.NewManager(k)
	steps0 := k.TotalSteps()
	var execTime time.Duration
	guest := func(name string, f func() error) error {
		sp := root.Child("vm.exec")
		t := time.Now()
		err := f()
		sp.End()
		execTime += time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	if err := guest("pre-probe", func() error { return expectProbe(k, cve, cve.Probe.VulnResult) }); err != nil {
		return err
	}
	if err := guest("pre-exploit", func() error { return expectExploit(k, cve, false) }); err != nil {
		return err
	}

	sp = root.Child("core.apply")
	t = time.Now()
	a, err := mgr.Apply(u, core.ApplyOptions{})
	sp.End()
	applyUS := us(time.Since(t))
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	m.sample("core.apply_us", applyUS)
	recordApplied(m, a)

	if err := guest("post-probe", func() error { return expectProbe(k, cve, cve.Probe.FixedResult) }); err != nil {
		return err
	}
	if err := guest("post-exploit", func() error { return expectExploit(k, cve, true) }); err != nil {
		return err
	}
	if err := guest("stress", func() error {
		bad, err := k.Call("stress_main", stressRounds)
		if err == nil && bad != 0 {
			err = fmt.Errorf("%d inconsistencies", bad)
		}
		return err
	}); err != nil {
		return err
	}

	sp = root.Child("core.undo")
	t = time.Now()
	err = mgr.Undo(core.ApplyOptions{})
	sp.End()
	m.sample("core.undo_us", us(time.Since(t)))
	if err != nil {
		return fmt.Errorf("undo: %w", err)
	}
	if err := guest("post-undo probe", func() error {
		got, err := runProbe(k, cve.Probe)
		if err != nil {
			return err
		}
		// Undo removes the replacement code but leaves data the apply
		// hooks repaired, so a data-semantics fix may stay fixed.
		if got != cve.Probe.VulnResult && !(cve.DataSemantics && got == cve.Probe.FixedResult) {
			return fmt.Errorf("probe = %d, want vulnerable %d", got, cve.Probe.VulnResult)
		}
		return nil
	}); err != nil {
		return err
	}
	insns := float64(k.TotalSteps() - steps0)
	m.add("vm.exec_ms", ms(execTime))
	m.add("vm.guest_insns", insns)
	m.add("vm.ns_per_insn/num", float64(execTime))
	m.add("vm.ns_per_insn/den", insns)
	return nil
}

// recordApplied records one applied update's stop_machine pause, run-pre
// matching and quiescence attempts.
func recordApplied(m *meter, a *core.Applied) {
	m.sample("kernel.pause_us", us(a.Pause))
	m.sample("core.runpre_us", us(a.MatchDuration))
	m.sample("core.apply_attempts_per_update", float64(a.Attempts))
	matched := 0
	for _, r := range a.Matches {
		matched += r.BytesMatched
	}
	m.sample("core.runpre_bytes", float64(matched))
}

// baseFunc finds the base-kernel function named name; a missing or
// ambiguous name is an error.
func baseFunc(k *kernel.Kernel, name string) (uint32, error) {
	var found []kernel.Sym
	for _, s := range k.Syms.Lookup(name) {
		if s.Func && s.Module == "" {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		return 0, fmt.Errorf("%d base kernel functions named %q", len(found), name)
	}
	return found[0].Addr, nil
}

// runTask runs one task from a base-kernel entry point to exit.
func runTask(k *kernel.Kernel, name, entry string, uid int, args ...int64) (*kernel.Task, error) {
	addr, err := baseFunc(k, entry)
	if err != nil {
		return nil, err
	}
	t, err := k.SpawnAt(name+":"+entry, addr, uid, args...)
	if err != nil {
		return nil, err
	}
	err = k.RunUntilExit(t, guestBudget)
	k.ReapExited()
	return t, err
}

// runProbe runs a CVE's probe and returns its result.
func runProbe(k *kernel.Kernel, p cvedb.Probe) (int64, error) {
	t, err := runTask(k, "probe", p.Entry, p.UID, p.Args...)
	if err != nil {
		return 0, err
	}
	return t.ExitCode, nil
}

// expectProbe checks that the CVE's probe returns want.
func expectProbe(k *kernel.Kernel, cve *cvedb.CVE, want int64) error {
	got, err := runProbe(k, cve.Probe)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("probe = %d, want %d", got, want)
	}
	return nil
}

// expectExploit runs the CVE's exploit, if it has one: before the fix it
// must succeed (and escalate, where it does); after, it must be blocked.
func expectExploit(k *kernel.Kernel, cve *cvedb.CVE, fixed bool) error {
	e := cve.Exploit
	if e == nil {
		return nil
	}
	t, err := runTask(k, "exploit", e.Entry, e.UID)
	if err != nil {
		return err
	}
	if fixed {
		if t.ExitCode != e.WantFixed || t.UID == 0 {
			return fmt.Errorf("exploit not blocked: exit %d uid %d", t.ExitCode, t.UID)
		}
		return nil
	}
	if t.ExitCode != e.WantVuln || (e.EscalatesTo >= 0 && t.UID != e.EscalatesTo) {
		return fmt.Errorf("exploit did not work on the vulnerable kernel: exit %d uid %d", t.ExitCode, t.UID)
	}
	return nil
}
