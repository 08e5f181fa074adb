package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"cricket/internal/apps"
	"cricket/internal/bench"
)

// modelled.json records the paper-figure values the modelled clock
// gives RustyHermit at CI scale. They are tagged sim and never mix
// with the wall-clock metrics: the guard only proves that the
// deterministic model behind Figs 6 and 7 did not drift.
//
//go:embed modelled.json
var modelledJSON []byte

type modelled struct {
	Fig6a float64 `json:"fig6a_us_per_call"`
	Fig6b float64 `json:"fig6b_us_per_call"`
	Fig6c float64 `json:"fig6c_us_per_call"`
	DtoH  float64 `json:"fig7_dtoh_MiBps"`
	HtoD  float64 `json:"fig7_htod_MiBps"`
}

// CI scale of cmd/benchharness -ci.
const (
	guardCalls = 2000
	guardBytes = 32 << 20
	guardRuns  = 2
)

// guardModelled reruns Figs 6a-c and 7 at CI scale and compares the
// Hermit rows with the recorded values exactly: the modelled clock is
// deterministic, so any difference at all is drift.
func guardModelled(recorded []byte) (modelled, error) {
	var want, got modelled
	if err := json.Unmarshal(recorded, &want); err != nil {
		return got, fmt.Errorf("modelled.json: %w", err)
	}
	hermit := func(rows []bench.Row, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			if r.Platform == "Hermit" {
				return r.Value, nil
			}
		}
		return 0, fmt.Errorf("no Hermit row")
	}
	perCall := func(api bench.MicroAPI) (float64, error) {
		s, err := hermit(bench.Fig6(api, guardCalls))
		return s / guardCalls * 1e6, err
	}
	var err error
	for _, step := range []func() error{
		func() (e error) { got.Fig6a, e = perCall(bench.MicroGetDeviceCount); return },
		func() (e error) { got.Fig6b, e = perCall(bench.MicroMallocFree); return },
		func() (e error) { got.Fig6c, e = perCall(bench.MicroKernelLaunch); return },
		func() (e error) { got.DtoH, e = hermit(bench.Fig7(apps.DeviceToHost, guardBytes, guardRuns)); return },
		func() (e error) { got.HtoD, e = hermit(bench.Fig7(apps.HostToDevice, guardBytes, guardRuns)); return },
	} {
		if err = step(); err != nil {
			return got, fmt.Errorf("modelled guard: %w", err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"fig6a_us_per_call", got.Fig6a, want.Fig6a},
		{"fig6b_us_per_call", got.Fig6b, want.Fig6b},
		{"fig6c_us_per_call", got.Fig6c, want.Fig6c},
		{"fig7_dtoh_MiBps", got.DtoH, want.DtoH},
		{"fig7_htod_MiBps", got.HtoD, want.HtoD},
	} {
		if c.got != c.want {
			return got, fmt.Errorf("modelled guard: %s = %v, recorded %v", c.name, c.got, c.want)
		}
	}
	return got, nil
}
