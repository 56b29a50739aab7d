// Package fault is the simulator's deterministic fault-injection
// subsystem. Layers register named injection points (migration copy
// failures, virtqueue stalls, balloon driver stalls, PEBS buffer
// pathologies, slow-tier latency spikes) and consult a seeded Injector at
// each point on their failure-eligible paths. Faults draw from
// internal/simrand sub-streams — never wall-clock randomness — so the same
// seed and schedule reproduce the same fault sequence bit for bit, which
// is what makes chaos runs regression-testable.
//
// The Injector is nil-safe: a component holds a possibly-nil *Injector
// and calls Fire unconditionally; with no injector (every normal
// experiment) the calls are free and no fault ever fires.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"demeter/internal/simrand"
)

// Point names one injection point, e.g. "migrate.copy-fail". Points are
// created by Register, typically from a package-level var in the owning
// layer.
type Point string

// Info describes a registered injection point.
type Info struct {
	Point Point
	// Layer is the owning subsystem ("hypervisor", "virtio", ...).
	Layer string
	// Description says what firing the point models.
	Description string
	// DefaultRate is the per-check fire probability the built-in chaos
	// schedule uses.
	DefaultRate float64
	// DefaultMagnitude scales the fault's effect (stall multiplier, PMI
	// burst size, latency multiplier); 0 for points with no magnitude.
	DefaultMagnitude float64
}

//lint:allow crossshard seeded by each layer's package init via Register and read-only afterwards
var registry = map[Point]Info{}

// Register declares an injection point. Each layer registers its points
// from package-level initialization; duplicate names panic (two layers
// claiming one point is a programming error).
func Register(name, layer, description string, defaultRate, defaultMagnitude float64) Point {
	p := Point(name)
	if _, dup := registry[p]; dup {
		panic(fmt.Sprintf("fault: point %q registered twice", name))
	}
	registry[p] = Info{
		Point:            p,
		Layer:            layer,
		Description:      description,
		DefaultRate:      defaultRate,
		DefaultMagnitude: defaultMagnitude,
	}
	return p
}

// Points returns every registered point, sorted by name for stable output.
func Points() []Info {
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// InfoOf returns the registration record for p.
func InfoOf(p Point) (Info, bool) {
	info, ok := registry[p]
	return info, ok
}

// arm is one armed point's state inside an Injector.
type arm struct {
	rate      float64
	magnitude float64
	src       *simrand.Source
	fired     uint64
	checked   uint64
}

// Injector decides, per registered point, whether a fault fires at each
// check. Each armed point draws from its own simrand sub-stream derived
// from (seed, point name), so arming an extra point or reordering checks
// across points never perturbs another point's fault sequence.
type Injector struct {
	root *simrand.Source
	arms map[Point]*arm

	// OnFire, when set, observes every fired fault (point and magnitude).
	// It runs after the draw, so it cannot perturb the fault sequence;
	// chaos runs use it to journal injections.
	OnFire func(Point, float64)
}

// NewInjector returns an injector with no armed points.
func NewInjector(seed uint64) *Injector {
	return &Injector{root: simrand.New(seed), arms: make(map[Point]*arm)}
}

// fnv1a hashes a point name into a Derive label.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Arm enables p at the given per-check probability with the point's
// registered default magnitude. Rates outside [0, 1] are clamped.
func (in *Injector) Arm(p Point, rate float64) {
	mag := 0.0
	if info, ok := registry[p]; ok {
		mag = info.DefaultMagnitude
	}
	in.ArmMagnitude(p, rate, mag)
}

// ArmMagnitude enables p with an explicit magnitude.
func (in *Injector) ArmMagnitude(p Point, rate, magnitude float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.arms[p] = &arm{rate: rate, magnitude: magnitude, src: in.root.Derive(fnv1a(string(p)))}
}

// Fire reports whether p fires at this check. Nil injectors and unarmed
// points never fire and consume no randomness.
//
//demeter:hotpath
func (in *Injector) Fire(p Point) bool {
	ok, _ := in.FireMagnitude(p)
	return ok
}

// FireMagnitude is Fire plus the point's configured magnitude.
//
//demeter:hotpath
func (in *Injector) FireMagnitude(p Point) (bool, float64) {
	if in == nil {
		return false, 0
	}
	a := in.arms[p]
	if a == nil || a.rate == 0 {
		return false, 0
	}
	a.checked++
	if !a.src.Bool(a.rate) {
		return false, 0
	}
	a.fired++
	if in.OnFire != nil {
		in.OnFire(p, a.magnitude)
	}
	return true, a.magnitude
}

// Fired returns how often p has fired.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil || in.arms[p] == nil {
		return 0
	}
	return in.arms[p].fired
}

// Checked returns how often p has been consulted.
func (in *Injector) Checked(p Point) uint64 {
	if in == nil || in.arms[p] == nil {
		return 0
	}
	return in.arms[p].checked
}

// Counter is one point's activity snapshot.
type Counter struct {
	Point   Point
	Rate    float64
	Checked uint64
	Fired   uint64
}

// Counters returns per-point activity, sorted by point name.
func (in *Injector) Counters() []Counter {
	if in == nil {
		return nil
	}
	out := make([]Counter, 0, len(in.arms))
	for p, a := range in.arms {
		out = append(out, Counter{Point: p, Rate: a.rate, Checked: a.checked, Fired: a.fired})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// Schedule maps points to per-check fire rates.
type Schedule map[Point]float64

// DefaultSchedule returns every registered point at its default rate
// (points registered with rate 0 are omitted).
func DefaultSchedule() Schedule {
	s := make(Schedule)
	for p, info := range registry {
		if info.DefaultRate > 0 {
			s[p] = info.DefaultRate
		}
	}
	return s
}

// ParseSchedule parses "point=rate,point=rate,..." against the registry.
// The empty string yields an empty schedule.
func ParseSchedule(spec string) (Schedule, error) {
	s := make(Schedule)
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("fault: bad schedule entry %q (want point=rate)", part)
		}
		p := Point(strings.TrimSpace(kv[0]))
		if _, ok := registry[p]; !ok {
			return nil, fmt.Errorf("fault: unknown injection point %q", p)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("fault: bad rate %q for point %q (want 0..1)", kv[1], p)
		}
		s[p] = rate
	}
	return s, nil
}

// Validate checks the schedule against the registry. Unknown point names
// and rates that are negative, NaN or above 1 are rejected with an error
// naming the offending entry. Arm quietly accepts unregistered points (it
// only consults the registry for the magnitude), so without this check a
// misspelled point in a hand-built schedule would be armed, never fire,
// and silently weaken the scenario.
func (s Schedule) Validate() error {
	points := make([]Point, 0, len(s))
	for p := range s {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, p := range points {
		if _, ok := registry[p]; !ok {
			return fmt.Errorf("fault: unknown injection point %q", p)
		}
		if rate := s[p]; math.IsNaN(rate) || rate < 0 || rate > 1 {
			return fmt.Errorf("fault: bad rate %g for point %q (want 0..1)", rate, p)
		}
	}
	return nil
}

// Clone returns an independent copy of the schedule, so callers that
// mutate rates (the explorer's scenario mutator) never alias a schedule
// that a live config still references. Clone of nil is nil.
func (s Schedule) Clone() Schedule {
	if s == nil {
		return nil
	}
	out := make(Schedule, len(s))
	for p, r := range s {
		out[p] = r
	}
	return out
}

// Scale returns a copy with every rate multiplied by mult (clamped to 1).
func (s Schedule) Scale(mult float64) Schedule {
	out := make(Schedule, len(s))
	for p, r := range s {
		v := r * mult
		if v > 1 {
			v = 1
		}
		out[p] = v
	}
	return out
}

// Apply arms every scheduled point on in, in sorted point order so the
// injector's arming sequence (and anything seeded from it) never depends
// on map iteration order.
func (s Schedule) Apply(in *Injector) {
	points := make([]Point, 0, len(s))
	for p := range s {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, p := range points {
		in.Arm(p, s[p])
	}
}

// String renders the schedule in canonical (sorted) "point=rate" form.
func (s Schedule) String() string {
	points := make([]string, 0, len(s))
	for p := range s {
		points = append(points, string(p))
	}
	sort.Strings(points)
	parts := make([]string, 0, len(points))
	for _, p := range points {
		parts = append(parts, fmt.Sprintf("%s=%g", p, s[Point(p)]))
	}
	return strings.Join(parts, ",")
}
