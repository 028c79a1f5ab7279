package ctrl

// This file implements the hitless (write-bubble) update path of the
// companion work [6] beside the scrub (scrub.go): instead of rebuilding and
// reloading the affected engine — which blackholes its traffic for the
// reload window — the control plane recompiles the engine's image under the
// pinned stage map, diffs it against the serving image, and hands the new
// image plus its write-bubble budget to the data-plane driver, which
// applies it through pipeline.BatchSim.BeginUpdate/InjectBubble with lookups
// still flowing. The update holds the manager's reload guard, so a
// lifecycle mutation and a hitless update can never rewrite the same
// structure concurrently.

import (
	"fmt"

	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/update"
)

// Hitless-update instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsHitlessUpdates = obs.NewCounter("ctrl.hitless_updates")
	obsHitlessWrites  = obs.NewCounter("ctrl.hitless_writes")
	obsHitlessBubbles = obs.NewCounter("ctrl.hitless_bubbles")
)

// PinnedImages returns a private copy of every engine's image as compiled
// under the manager's pinned stage map — the serving baseline a hitless-
// update driver must start from, because BeginHitlessUpdate diffs against
// this same compilation and the write budget only covers that word-for-word
// delta. Nothing is compiled: the images are clones of the manager's
// pristine ones, copied at their first write, so the caller may corrupt or
// rewrite what it gets and neither another call's images nor the manager's
// see it. The error is always nil; it dates from when this call compiled.
func (m *Manager) PinnedImages() ([]*pipeline.Image, error) {
	imgs := make([]*pipeline.Image, len(m.pinned))
	for e := range m.pinned {
		imgs[e] = m.pinned[e].Clone()
	}
	return imgs, nil
}

// PinnedImage is PinnedImages for the one engine e: the copy a scrub
// reloads. Like every image the manager hands out it is the caller's own.
func (m *Manager) PinnedImage(e int) (*pipeline.Image, error) {
	if e < 0 || e >= len(m.pinned) {
		return nil, fmt.Errorf("ctrl: engine %d outside [0,%d)", e, len(m.pinned))
	}
	return m.pinned[e].Clone(), nil
}

// HitlessUpdate is a prepared in-service update: the coalesced ops, the
// post-update table, the recompiled engine image and its write-bubble
// budget. It holds the manager's reload guard from BeginHitlessUpdate until
// Commit or Abort, so lifecycle mutations and further updates are rejected
// while the data plane is mid-rewrite, and again from a Rearm after an Abort.
type HitlessUpdate struct {
	m      *Manager
	vn     int
	ops    []update.Op
	rawOps int
	table  *rib.Table
	// base and from are the network's table and the engine's image the
	// update was prepared against: a re-arm needs both still live.
	base *rib.Table
	from *pipeline.Image
	// image is the post-update compilation, pristine: it becomes the
	// manager's own on Commit and stays the update's on Abort, for a Rearm.
	// served is its clone for the data plane, a fresh one each arming.
	image     *pipeline.Image
	served    *pipeline.Image
	writes    int
	bubbles   int
	done      bool
	committed bool
}

// VN returns the updated network's index.
func (h *HitlessUpdate) VN() int { return h.vn }

// Ops returns the coalesced op batch (later ops to a prefix supersede
// earlier ones before diffing).
func (h *HitlessUpdate) Ops() []update.Op { return h.ops }

// RawOps returns the batch size before coalescing.
func (h *HitlessUpdate) RawOps() int { return h.rawOps }

// Table returns the post-update routing table (the new oracle).
func (h *HitlessUpdate) Table() *rib.Table { return h.table }

// Image returns the recompiled engine image the bubbles install — the data
// plane's copy, the same one on every call until a Rearm hands out another.
// It is a clone of the image Commit keeps, so the engine that serves it (and
// takes upsets in it) never writes to the control plane's.
func (h *HitlessUpdate) Image() *pipeline.Image { return h.served }

// Writes returns the stage-memory write count of the image diff.
func (h *HitlessUpdate) Writes() int { return h.writes }

// Bubbles returns the write-bubble budget (at least 1: the final bubble
// doubles as the bank-flip commit).
func (h *HitlessUpdate) Bubbles() int { return h.bubbles }

// Engine returns the engine slot the update targets (0 for the merged
// scheme, the network's own engine for the separate one).
func (h *HitlessUpdate) Engine() int { return h.m.engineOf(h.vn) }

// BeginHitlessUpdate prepares an in-service update for network vn: the ops
// are coalesced, applied to a copy of the live table, the affected engine's
// image is recompiled under the pinned stage map and diffed against the
// manager's image of the current tables (kept, not recompiled), and the
// result carries the new image plus the write-bubble budget the data plane
// must spend to install it. The manager's reload guard is held until Commit
// or Abort. The scheme asymmetry the companion work quantifies falls out of
// the diff: VS touches one network's engine, VM must rewrite the shared
// merged structure.
func (m *Manager) BeginHitlessUpdate(vn int, ops []update.Op) (*HitlessUpdate, error) {
	if vn < 0 || vn >= len(m.tables) {
		return nil, fmt.Errorf("ctrl: network %d outside [0,%d)", vn, len(m.tables))
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("ctrl: hitless update with no ops")
	}
	if err := m.BeginReload(); err != nil {
		return nil, err
	}
	h, err := m.prepareHitless(vn, ops)
	if err != nil {
		m.EndReload()
		return nil, err
	}
	return h, nil
}

func (m *Manager) prepareHitless(vn int, ops []update.Op) (*HitlessUpdate, error) {
	coalesced := update.Coalesce(ops)
	newTbl := update.Apply(m.tables[vn], coalesced)
	_, after, err := m.withTable(vn, newTbl)
	if err != nil {
		return nil, err
	}
	writes, bubbles, err := update.Cost(m.pinned[m.engineOf(vn)], after)
	if err != nil {
		return nil, err
	}
	bubbles = max(bubbles, 1) // the commit bubble always runs
	return &HitlessUpdate{
		m:       m,
		vn:      vn,
		ops:     coalesced,
		rawOps:  len(ops),
		table:   newTbl,
		base:    m.tables[vn],
		from:    m.pinned[m.engineOf(vn)],
		image:   after,
		served:  after.Clone(),
		writes:  writes,
		bubbles: bubbles,
	}, nil
}

// Rearm arms an aborted update again as it was prepared — the same ops,
// table, image and write and bubble counts, nothing regenerated, applied or
// recompiled — taking the reload guard again and handing the data plane a
// fresh clone of the image (Image). It is refused while the update is armed,
// after it committed, and when the network's live table or the engine's
// image changed since it was prepared (ErrUpdateStale): the update would no
// longer be the diff its writes count.
func (h *HitlessUpdate) Rearm() error {
	m := h.m
	switch {
	case !h.done:
		return fmt.Errorf("ctrl: re-arm of an armed hitless update")
	case h.committed:
		return fmt.Errorf("ctrl: hitless update: %w", ErrUpdateFinished)
	case h.vn >= len(m.tables) || m.tables[h.vn] != h.base || m.pinned[m.engineOf(h.vn)] != h.from:
		return fmt.Errorf("ctrl: re-arm of network %d's update: %w", h.vn, ErrUpdateStale)
	}
	if err := m.BeginReload(); err != nil {
		return err
	}
	h.served, h.done = h.image.Clone(), false
	return nil
}

// Commit installs the update on the manager — the new table becomes
// authoritative, the new image becomes the engine's pristine image (the
// router keeps its placement: a hitless update does not re-place the
// design), and the lifecycle log gains an Update event with zero disrupted
// networks (the point of the write-bubble path) — and releases the reload
// guard.
func (h *HitlessUpdate) Commit() (Event, error) {
	if h.done {
		return Event{}, fmt.Errorf("ctrl: hitless update: %w", ErrUpdateFinished)
	}
	h.done, h.committed = true, true
	m := h.m
	m.tables[h.vn] = h.table
	m.pinned[h.Engine()] = h.image
	m.router.Images()[h.Engine()] = h.image
	ev := Event{
		Action: Update,
		VN:     h.vn,
		K:      len(m.tables),
		// Hitless: lookups keep flowing through the bubble window, so no
		// network's forwarding pauses — versus 1 (VS) or K (VM) for the
		// reload path of ApplyUpdates.
		DisruptedNetworks: 0,
		Writes:            h.writes,
		Bubbles:           h.bubbles,
	}
	m.record(ev)
	obsHitlessUpdates.Inc()
	obsHitlessWrites.Add(int64(h.writes))
	obsHitlessBubbles.Add(int64(h.bubbles))
	m.EndReload()
	return ev, nil
}

// Abort abandons the prepared update without touching the live tables or
// images and releases the reload guard; Rearm may arm it again.
func (h *HitlessUpdate) Abort() {
	if h.done {
		return
	}
	h.done = true
	h.m.EndReload()
}
