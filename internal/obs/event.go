package obs

// Unified structured event log. Control-plane moments — SEU injections and
// detections, scrub rounds, engine kills, hitless-update batches, lifecycle
// mutations — flow through one leveled EventLog instead of ad-hoc printf
// calls scattered over the packages, and dump as JSONL with deterministic
// field order. Events carry the run cycle they happened at (-1 for
// control-plane actions outside simulated time). Producers log from a
// single coordinating goroutine per run, so a dump is a pure function of
// the run's seeds; the mutex exists for the live /events.jsonl endpoint.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Level is an event severity.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a level name to its Level; any other name is an error.
func ParseLevel(s string) (Level, error) {
	for l := LevelDebug; l <= LevelError; l++ {
		if s == l.String() {
			return l, nil
		}
	}
	return LevelInfo, fmt.Errorf("want debug, info, warn or error")
}

// Field is one key/value pair of an event. Values are limited to the JSON
// scalar types the emitter formats deterministically: int, int64, float64,
// string, bool.
type Field struct {
	Key string
	Val any
}

// Event is one logged moment.
type Event struct {
	Cycle  int64
	Level  Level
	Kind   string
	Fields []Field
}

// defaultEventCap bounds an EventLog: past it new events are counted as
// dropped instead of growing without bound (a multi-hour soak must not
// OOM on its own telemetry).
const defaultEventCap = 1 << 16

// EventLog is a bounded, leveled, structured event sink.
type EventLog struct {
	mu      sync.Mutex
	min     Level
	cap     int
	dropped int64
	events  []Event
}

// NewEventLog builds a log keeping events at or above min severity, bounded
// at 65536 events.
func NewEventLog(min Level) *EventLog {
	return &EventLog{min: min, cap: defaultEventCap}
}

// SetCapacity overrides the event bound (n < 1 keeps the current bound).
func (l *EventLog) SetCapacity(n int) {
	if l == nil || n < 1 {
		return
	}
	l.mu.Lock()
	l.cap = n
	l.mu.Unlock()
}

// Log records one event: severity, the run cycle it happened at (-1 for
// control-plane actions outside simulated time), a kind tag, and
// alternating key/value pairs. Events under the log's minimum level are
// discarded; a nil log discards everything, so call sites need no guard.
func (l *EventLog) Log(level Level, cycle int64, kind string, kv ...any) {
	if l == nil || level < l.min {
		return
	}
	fields := make([]Field, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			k = fmt.Sprint(kv[i])
		}
		fields = append(fields, Field{Key: k, Val: kv[i+1]})
	}
	l.mu.Lock()
	if len(l.events) >= l.cap {
		l.dropped++
	} else {
		l.events = append(l.events, Event{Cycle: cycle, Level: level, Kind: kind, Fields: fields})
	}
	l.mu.Unlock()
}

// Len returns the retained event count.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Dropped returns how many events the capacity bound discarded.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the retained events in log order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Reset clears the retained events and the dropped count (the level and
// capacity survive).
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = nil
	l.dropped = 0
	l.mu.Unlock()
}

// appendJSONValue renders one field value with deterministic formatting.
func appendJSONValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		b.WriteString(strconv.Quote(x))
	case int:
		b.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	default:
		b.WriteString(strconv.Quote(fmt.Sprint(x)))
	}
}

// WriteJSONL dumps the retained events after a {"schema":N} line, one JSON
// object per line, in log order:
// {"cycle":N,"level":"info","event":"scrub_start",<fields...>}. Safe on a
// nil log (writes nothing).
func (l *EventLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	if _, err := io.WriteString(w, jsonlSchemaLine); err != nil {
		return err
	}
	var b strings.Builder
	for _, e := range l.Events() {
		b.Reset()
		b.WriteString(`{"cycle":`)
		b.WriteString(strconv.FormatInt(e.Cycle, 10))
		b.WriteString(`,"level":"`)
		b.WriteString(e.Level.String())
		b.WriteString(`","event":`)
		b.WriteString(strconv.Quote(e.Kind))
		for _, f := range e.Fields {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(f.Key))
			b.WriteByte(':')
			appendJSONValue(&b, f.Val)
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
