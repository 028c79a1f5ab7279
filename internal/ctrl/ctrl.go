// Package ctrl implements the control-plane side of router virtualization
// the paper delegates to "existing OS virtualization techniques" (Section
// II-A): a lifecycle manager that adds and removes virtual networks on a
// running virtualized router and accounts the data-plane reconfiguration
// each change costs. The scheme asymmetry the paper highlights shows up
// directly: the separate scheme adds a network by placing one new engine
// (nobody else is disturbed, until I/O pins run out), while the merged
// scheme must rebuild and reload the shared structure, disrupting every
// network, but scales further in memory.
package ctrl

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

// Action is a lifecycle operation kind.
type Action int

const (
	// Add brings a new virtual network into service.
	Add Action = iota
	// Remove retires a virtual network.
	Remove
	// Update applies routing churn to one network.
	Update
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Add:
		return "add"
	case Remove:
		return "remove"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Event records one lifecycle operation and its data-plane cost.
type Event struct {
	Action Action
	// VN is the affected network's index (post-operation for Add).
	VN int
	// K is the network count after the operation.
	K int
	// DisruptedNetworks counts networks whose forwarding pauses while the
	// change is applied: 1 for a separate-engine load, K for a merged
	// structure swap.
	DisruptedNetworks int
	// Writes is the number of stage-memory words written.
	Writes int
	// Bubbles is the number of pipeline write bubbles (lookup slots lost).
	Bubbles int
}

// Manager hosts a virtualized router (VS or VM) and mutates its set of
// virtual networks at runtime. It owns the authoritative tables and, with
// them, the one pristine compiled image of every engine; the data plane
// serves clones of those (PinnedImages, PinnedImage — a scrub's rebuild —
// and HitlessUpdate.Image), which copy the words at their first write, so
// nothing the data plane does to one — an SEU, a shadow-bank write — reaches
// the control plane's.
type Manager struct {
	cfg    core.Config
	tables []*rib.Table
	// pinned[e] is engine e's image compiled under sm from the live tables:
	// one per table for VS, the one merged image for VM. It is replaced,
	// never written, and router is assembled over exactly these images.
	pinned []*pipeline.Image
	router *core.Router
	events []Event
	// sm pins a fixed stage map so image diffs across rebuilds are
	// comparable word-for-word.
	sm trie.StageMap
	// reloading marks a data-plane reload in flight (a hitless update):
	// lifecycle mutations are rejected until it completes, because applying
	// an update to a structure that is mid-rewrite corrupts both.
	reloading bool
	// log is the optional unified event sink: every lifecycle event is
	// mirrored into it alongside the structured Events slice.
	log *obs.EventLog
}

// SetEventLog attaches a structured event sink; every lifecycle operation
// (add, remove, update, hitless commit) is mirrored into it as a
// "lifecycle_<action>" event. nil detaches (the Log method is nil-safe).
func (m *Manager) SetEventLog(l *obs.EventLog) { m.log = l }

// record appends ev to the lifecycle log and mirrors it into the attached
// event sink. Lifecycle operations happen outside simulated time, so the
// event cycle is -1.
func (m *Manager) record(ev Event) {
	m.events = append(m.events, ev)
	m.log.Log(obs.LevelInfo, -1, "lifecycle_"+ev.Action.String(),
		"vn", ev.VN, "k", ev.K, "disrupted", ev.DisruptedNetworks,
		"writes", ev.Writes, "bubbles", ev.Bubbles)
}

// BeginReload marks a data-plane reload in flight. While a reload is open,
// AddNetwork, RemoveNetwork and ApplyUpdates fail instead of mutating the
// structure being rewritten. It fails if a reload is already open.
func (m *Manager) BeginReload() error {
	if m.reloading {
		return fmt.Errorf("ctrl: reload already open: %w", ErrReloadInFlight)
	}
	m.reloading = true
	return nil
}

// EndReload closes the in-flight reload window.
func (m *Manager) EndReload() { m.reloading = false }

// Reloading reports whether a data-plane reload is in flight.
func (m *Manager) Reloading() bool { return m.reloading }

// guardMutation rejects lifecycle operations while a reload is in flight.
func (m *Manager) guardMutation(action Action) error {
	if m.reloading {
		return fmt.Errorf("ctrl: %s rejected: %w", action, ErrReloadInFlight)
	}
	return nil
}

// New builds the manager around an initial set of networks. Only the
// virtualized schemes are dynamic; NV changes mean racking a new device,
// which needs no manager. Every image is compiled under one pinned
// fold-into-stage-0 map over all 33 levels, so cfg.Balanced does not apply.
func New(cfg core.Config, tables []*rib.Table) (*Manager, error) {
	if cfg.Scheme == core.NV {
		return nil, fmt.Errorf("ctrl: the non-virtualized scheme has no runtime lifecycle")
	}
	cfg.Balanced = false
	stages := cfg.Stages
	if stages == 0 {
		stages = core.DefaultStages
	}
	sm, err := trie.NewStageMap(stages, 32)
	if err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, sm: sm}
	live := append([]*rib.Table(nil), tables...)
	pinned := make([]*pipeline.Image, m.engineOf(len(live)-1)+1)
	for e := range pinned {
		if pinned[e], err = m.compile(live, e); err != nil {
			return nil, err
		}
	}
	if err := m.install(live, pinned); err != nil {
		return nil, err
	}
	return m, nil
}

// install makes (tables, pinned) the live set, provided a router can be
// placed over the images; on error the manager is unchanged. Both slices
// become the manager's own.
func (m *Manager) install(tables []*rib.Table, pinned []*pipeline.Image) error {
	cfg := m.cfg
	cfg.K = len(tables)
	r, err := core.Assemble(cfg, append([]*pipeline.Image(nil), pinned...))
	if err != nil {
		return err
	}
	m.tables, m.pinned, m.router = tables, pinned, r
	return nil
}

// engineOf maps a network to the engine slot holding its routes: its own
// engine in the separate scheme, the shared engine 0 in the merged one.
func (m *Manager) engineOf(vn int) int {
	if m.cfg.Scheme == core.VM {
		return 0
	}
	return vn
}

// Router returns the currently running router. Its Images() are the
// manager's pristine images themselves: read them, never write them — a
// data plane that may (fault injection, shadow-bank updates) serves
// PinnedImages() instead.
func (m *Manager) Router() *core.Router { return m.router }

// K returns the number of networks in service.
func (m *Manager) K() int { return len(m.tables) }

// Events returns the lifecycle log.
func (m *Manager) Events() []Event { return m.events }

// Tables returns the live tables (shared storage). Lifecycle operations
// replace the slice, so read it again after one.
func (m *Manager) Tables() []*rib.Table { return m.tables }

// compile compiles engine e's image over tables — network e's own for VS,
// the merged one of them all for VM — under the pinned stage map, so diffs
// across rebuilds compare word-for-word.
func (m *Manager) compile(tables []*rib.Table, e int) (*pipeline.Image, error) {
	if m.cfg.Scheme == core.VS {
		tables = tables[e : e+1]
	}
	return pipeline.NewRoutes(tables).Compile(m.sm)
}

// withTable returns a copy of the live table set with network vn's table
// replaced by tbl, and the image of vn's engine compiled over that set: the
// table's own engine for VS, the whole merged structure for VM.
func (m *Manager) withTable(vn int, tbl *rib.Table) ([]*rib.Table, *pipeline.Image, error) {
	tables := append([]*rib.Table(nil), m.tables...)
	tables[vn] = tbl
	img, err := m.compile(tables, m.engineOf(vn))
	return tables, img, err
}

// AddNetwork brings tbl into service. For VS the new engine is compiled and
// placed beside the running ones (the add fails with a capacity error when
// the device is out of I/O or memory, reproducing the paper's VS
// scalability limit); for VM the merged structure is rebuilt and swapped.
func (m *Manager) AddNetwork(tbl *rib.Table) (Event, error) {
	if err := m.guardMutation(Add); err != nil {
		return Event{}, err
	}
	tables := append(append([]*rib.Table(nil), m.tables...), tbl)
	ev := Event{Action: Add, VN: len(tables) - 1, K: len(tables)}
	if m.cfg.Scheme == core.VS {
		img, err := m.compile(tables, len(tables)-1)
		if err != nil {
			return Event{}, err
		}
		if err := m.install(tables, append(append([]*pipeline.Image(nil), m.pinned...), img)); err != nil {
			return Event{}, err
		}
		// Only the new engine loads; running networks are untouched.
		ev.DisruptedNetworks = 1
		ev.Writes = img.Words()
		ev.Bubbles = 0 // the engine loads before it is put in service
	} else {
		writes, bubbles, err := m.swapMerged(tables)
		if err != nil {
			return Event{}, err
		}
		ev.DisruptedNetworks = len(tables)
		ev.Writes, ev.Bubbles = writes, bubbles
	}
	m.record(ev)
	return ev, nil
}

// swapMerged replaces the merged scheme's table set: the shared structure
// is recompiled over tables, costed against the serving image and
// installed. It returns the write and bubble counts.
func (m *Manager) swapMerged(tables []*rib.Table) (writes, bubbles int, err error) {
	after, err := m.compile(tables, 0)
	if err != nil {
		return 0, 0, err
	}
	if writes, bubbles, err = update.Cost(m.pinned[0], after); err != nil {
		return 0, 0, err
	}
	if err := m.install(tables, []*pipeline.Image{after}); err != nil {
		return 0, 0, err
	}
	return writes, bubbles, nil
}

// RemoveNetwork retires network vn and compacts indices above it.
func (m *Manager) RemoveNetwork(vn int) (Event, error) {
	if err := m.guardMutation(Remove); err != nil {
		return Event{}, err
	}
	if vn < 0 || vn >= len(m.tables) {
		return Event{}, fmt.Errorf("ctrl: network %d outside [0,%d)", vn, len(m.tables))
	}
	if len(m.tables) == 1 {
		return Event{}, fmt.Errorf("ctrl: cannot remove the last network")
	}
	tables := append(append([]*rib.Table(nil), m.tables[:vn]...), m.tables[vn+1:]...)
	ev := Event{Action: Remove, VN: vn, K: len(tables)}
	if m.cfg.Scheme == core.VS {
		pinned := append(append([]*pipeline.Image(nil), m.pinned[:vn]...), m.pinned[vn+1:]...)
		if err := m.install(tables, pinned); err != nil {
			return Event{}, err
		}
		ev.DisruptedNetworks = 1 // the retired network only
	} else {
		writes, bubbles, err := m.swapMerged(tables)
		if err != nil {
			return Event{}, err
		}
		ev.DisruptedNetworks = len(tables) + 1
		ev.Writes, ev.Bubbles = writes, bubbles
	}
	m.record(ev)
	return ev, nil
}

// ApplyUpdates applies routing churn to network vn, reporting the write-
// bubble cost (Section II-A of the companion work [6]).
func (m *Manager) ApplyUpdates(vn int, ops []update.Op) (Event, error) {
	if err := m.guardMutation(Update); err != nil {
		return Event{}, err
	}
	if vn < 0 || vn >= len(m.tables) {
		return Event{}, fmt.Errorf("ctrl: network %d outside [0,%d)", vn, len(m.tables))
	}
	e := m.engineOf(vn)
	tables, after, err := m.withTable(vn, update.Apply(m.tables[vn], ops))
	if err != nil {
		return Event{}, err
	}
	writes, bubbles, err := update.Cost(m.pinned[e], after)
	if err != nil {
		return Event{}, err
	}
	pinned := append([]*pipeline.Image(nil), m.pinned...)
	pinned[e] = after
	if err := m.install(tables, pinned); err != nil {
		return Event{}, err
	}
	ev := Event{Action: Update, VN: vn, K: len(m.tables), Writes: writes, Bubbles: bubbles}
	if m.cfg.Scheme == core.VS {
		ev.DisruptedNetworks = 1
	} else {
		ev.DisruptedNetworks = len(m.tables)
	}
	m.record(ev)
	return ev, nil
}
