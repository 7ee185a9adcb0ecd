package sim

import (
	"fmt"
	"reflect"

	"ucp/internal/frontend"
	"ucp/internal/uopcache"
)

// Counter-block arithmetic for measured-region deltas: span results
// carry deltas of the flat uint64 stats blocks (frontend.Stats,
// uopcache.Stats, core.Stats, cache.Stats), the parallel executor's
// reducer sums them back together, and SetRates derives every run
// mode's rate metrics from them. SubCounters and AddCounters walk the
// struct by reflection so a newly added counter field is picked up
// automatically; any non-uint64, non-struct field is a programming
// error and panics at first use (the sim package's own tests exercise
// every block).

// SubCounters returns the field-wise difference b−a over every uint64
// counter in T, recursing into nested structs (bpred.H2PStats inside
// frontend.Stats). T must consist exclusively of uint64 fields and
// nested structs of the same shape.
func SubCounters[T any](a, b T) T {
	var out T
	subCounters(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

func subCounters(dst, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Uint64:
		dst.SetUint(b.Uint() - a.Uint())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			subCounters(dst.Field(i), a.Field(i), b.Field(i))
		}
	default:
		panic(fmt.Sprintf("sim: SubCounters: unsupported field kind %s in %s", a.Kind(), a.Type()))
	}
}

// AddCounters adds src into dst field-wise over every uint64 counter in
// T, with the same shape contract as SubCounters. Integer addition is
// exact and commutative, so accumulating per-segment deltas in any
// grouping produces identical bits — the property the time-parallel
// merge relies on (and the ucplint mergeorder rule checks for floats).
func AddCounters[T any](dst *T, src T) {
	addCounters(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src))
}

func addCounters(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			addCounters(dst.Field(i), src.Field(i))
		}
	default:
		panic(fmt.Sprintf("sim: AddCounters: unsupported field kind %s in %s", src.Kind(), src.Type()))
	}
}

// SetRates derives r's rate metrics — IPC, UopHitRate, SwitchPKI,
// CondMPKI and PrefetchAccuracy — from r.Insts, r.Cycles and the
// measured-region counter deltas fe and uop. The serial engine, the
// sampled controller and the parallel executor's reducer all derive
// their rates here, so the formulas cannot drift apart.
func (r *Result) SetRates(fe frontend.Stats, uop uopcache.Stats) {
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / float64(r.Cycles)
	}
	if fetched := fe.UopsFromUopCache + fe.UopsFromDecode; fetched > 0 {
		r.UopHitRate = float64(fe.UopsFromUopCache) / float64(fetched)
	}
	if r.Insts > 0 {
		r.SwitchPKI = float64(fe.ModeSwitches) / float64(r.Insts) * 1000
		r.CondMPKI = float64(fe.CondMispredicts) / float64(r.Insts) * 1000
	}
	if uop.PrefetchInserts > 0 {
		r.PrefetchAccuracy = float64(uop.PrefetchUsed) / float64(uop.PrefetchInserts)
	}
}
