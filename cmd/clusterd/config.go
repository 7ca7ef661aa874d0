package main

// Watched-config plumbing for clusterd. The command line seeds every
// tunable; a -config file (hot-reloaded by internal/appconf) overrides
// the keys it names. File keys use pointer fields so "absent" and "set
// to the zero value" are distinguishable: absent keys keep their flag
// values, present keys shadow them — loudly, when the flag was also set
// explicitly on the command line.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/netaware/netcluster/internal/appconf"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv/sink"
)

// sinkSpec is the config-file shape of one push sink; it mirrors
// sink.Spec but takes the interval in operator-friendly "5s" form.
type sinkSpec struct {
	Name     string           `json:"name"`
	Type     string           `json:"type"`
	Endpoint string           `json:"endpoint,omitempty"`
	Path     string           `json:"path,omitempty"`
	Interval appconf.Duration `json:"interval,omitempty"`
}

func toSinkSpecs(ss []sinkSpec) []sink.Spec {
	out := make([]sink.Spec, len(ss))
	for i, s := range ss {
		out[i] = sink.Spec{
			Name:     s.Name,
			Type:     s.Type,
			Endpoint: s.Endpoint,
			Path:     s.Path,
			Interval: s.Interval.Std(),
		}
	}
	return out
}

// fileConfig is the watched file's schema. Every field is optional.
type fileConfig struct {
	MaxInflight  *int              `json:"max_inflight,omitempty"`
	MaxBatch     *int              `json:"max_batch,omitempty"`
	MaxBodyBytes *int64            `json:"max_body_bytes,omitempty"`
	ChurnEvery   *appconf.Duration `json:"churn_every,omitempty"`
	DrainTimeout *appconf.Duration `json:"drain_timeout,omitempty"`
	BusyK        *int              `json:"busy_k,omitempty"`
	BusyCapacity *int              `json:"busy_capacity,omitempty"`
	Sinks        []sinkSpec        `json:"sinks,omitempty"`
}

// parseFileConfig is the appconf parse hook: strict decoding (unknown
// keys are a rejected reload, not a silent typo) plus validation, so an
// invalid edit never becomes the live generation.
func parseFileConfig(data []byte) (fileConfig, error) {
	var c fileConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, err
	}
	if c.MaxInflight != nil && *c.MaxInflight < 1 {
		return c, fmt.Errorf("max_inflight %d: must be >= 1", *c.MaxInflight)
	}
	if c.MaxBatch != nil && *c.MaxBatch < 1 {
		return c, fmt.Errorf("max_batch %d: must be >= 1", *c.MaxBatch)
	}
	if c.MaxBodyBytes != nil && *c.MaxBodyBytes < 1 {
		return c, fmt.Errorf("max_body_bytes %d: must be >= 1", *c.MaxBodyBytes)
	}
	if c.ChurnEvery != nil && c.ChurnEvery.Std() < 0 {
		return c, fmt.Errorf("churn_every %v: must be >= 0", c.ChurnEvery.Std())
	}
	if c.DrainTimeout != nil && c.DrainTimeout.Std() <= 0 {
		return c, fmt.Errorf("drain_timeout %v: must be > 0", c.DrainTimeout.Std())
	}
	if c.BusyK != nil && *c.BusyK < 1 {
		return c, fmt.Errorf("busy_k %d: must be >= 1", *c.BusyK)
	}
	if c.BusyCapacity != nil && *c.BusyCapacity < 1 {
		return c, fmt.Errorf("busy_capacity %d: must be >= 1", *c.BusyCapacity)
	}
	// The busy keys validate as one unit through the accumulator's own
	// rules, with absent keys at their defaults — exactly the shape a
	// reload will hand the busy tracker.
	bc := cluster.BoundedConfig{}
	if c.BusyK != nil {
		bc.K = *c.BusyK
	}
	if c.BusyCapacity != nil {
		bc.Capacity = *c.BusyCapacity
	}
	if err := bc.Validate(); err != nil {
		return c, err
	}
	if err := sink.ValidateSpecs(toSinkSpecs(c.Sinks)); err != nil {
		return c, err
	}
	return c, nil
}

// merge overlays the file config onto the flag-seeded base. For each
// file key that shadows a flag the operator set explicitly on this
// invocation, a structured warning names both values — the file wins,
// but never silently.
func merge(base node.Tunables, fc fileConfig, explicit map[string]bool, logf func(string, ...any)) node.Tunables {
	out := base
	shadow := func(key, flagName string, flagVal, fileVal any) {
		if explicit[flagName] {
			logf("clusterd: warn event=config_shadows_flag key=%s flag=-%s flag_value=%v config_value=%v resolution=config-file-wins",
				key, flagName, flagVal, fileVal)
		}
	}
	if fc.MaxInflight != nil {
		shadow("max_inflight", "max-inflight", base.MaxInflight, *fc.MaxInflight)
		out.MaxInflight = *fc.MaxInflight
	}
	if fc.MaxBatch != nil {
		shadow("max_batch", "max-batch", base.MaxBatch, *fc.MaxBatch)
		out.MaxBatch = *fc.MaxBatch
	}
	if fc.MaxBodyBytes != nil {
		shadow("max_body_bytes", "max-body", base.MaxBodyBytes, *fc.MaxBodyBytes)
		out.MaxBodyBytes = *fc.MaxBodyBytes
	}
	if fc.ChurnEvery != nil {
		shadow("churn_every", "churn-every", base.ChurnEvery.Std(), fc.ChurnEvery.Std())
		out.ChurnEvery = *fc.ChurnEvery
	}
	if fc.DrainTimeout != nil {
		shadow("drain_timeout", "drain-timeout", base.DrainTimeout.Std(), fc.DrainTimeout.Std())
		out.DrainTimeout = *fc.DrainTimeout
	}
	if fc.BusyK != nil {
		shadow("busy_k", "busy-k", base.BusyK, *fc.BusyK)
		out.BusyK = *fc.BusyK
	}
	if fc.BusyCapacity != nil {
		shadow("busy_capacity", "busy-capacity", base.BusyCapacity, *fc.BusyCapacity)
		out.BusyCapacity = *fc.BusyCapacity
	}
	return out
}
