// Advisor progress estimation — the paper's workload-analysis motivation
// (Section 1.1): index and materialized-view advisors compile every query of
// a workload, often thousands of them, and can run for hours. A calibrated
// compilation-time estimator forecasts the total up front and turns the
// advisor's silence into a progress bar.
//
// This example plays the advisor: it estimates the compile time of the whole
// real2 workload in one cheap pass, then actually compiles the workload,
// reporting predicted-vs-elapsed progress along the way.
package main

import (
	"fmt"
	"time"

	"cote"
)

func main() {
	// Calibrate once per machine on the synthetic workloads.
	fmt.Println("calibrating the time model (star + linear workloads) ...")
	var training []cote.CompileObservation
	for _, w := range []*cote.Workload{cote.StarWorkload(1), cote.LinearWorkload(1)} {
		for _, q := range w.Queries {
			o, err := cote.TrainingObservation(q.Block, cote.OptimizeOptions{Level: cote.LevelHighInner2})
			if err != nil {
				panic(err)
			}
			training = append(training, o)
		}
	}
	model, err := cote.Calibrate(training)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model: %v\n\n", model)

	// Phase 1: forecast the whole workload quickly.
	w := cote.Real2Workload(1)
	forecast := make([]time.Duration, len(w.Queries))
	var totalForecast time.Duration
	forecastStart := time.Now()
	for i, q := range w.Queries {
		est, err := cote.EstimatePlans(q.Block, cote.EstimateOptions{
			Level: cote.LevelHighInner2, Model: model,
		})
		if err != nil {
			panic(err)
		}
		forecast[i] = est.PredictedTime
		totalForecast += est.PredictedTime
	}
	fmt.Printf("forecast for %d queries: %v total (forecasting itself took %v)\n\n",
		len(w.Queries), totalForecast, time.Since(forecastStart))

	// Phase 2: the advisor's compile loop, with a live progress estimate.
	fmt.Printf("%-12s %12s %12s %9s\n", "query", "predicted", "actual", "progress")
	var done time.Duration
	var actualTotal time.Duration
	for i, q := range w.Queries {
		res, err := cote.Optimize(q.Block, cote.OptimizeOptions{Level: cote.LevelHighInner2})
		if err != nil {
			panic(err)
		}
		done += forecast[i]
		actualTotal += res.Elapsed
		fmt.Printf("%-12s %12v %12v %8.1f%%\n",
			q.Name, forecast[i], res.Elapsed, 100*done.Seconds()/totalForecast.Seconds())
	}
	fmt.Printf("\nworkload compiled in %v; forecast was %v (%.1f%% off)\n",
		actualTotal, totalForecast,
		100*(totalForecast.Seconds()-actualTotal.Seconds())/actualTotal.Seconds())
}
