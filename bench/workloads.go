package main

import (
	"repro/internal/models"
)

// workload is one traffic mix plus the compression work behind it. Every
// workload runs the same life cycle — `deepsz encode` its nets, decode and
// verify them, time decodes of paper_fc, then serve one net through
// deepszgw → deepszd — so every end-to-end metric is measured on every
// workload; the workloads differ in which part they load.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json and the README

	Nets []string // zoo nets encoded with the CLI, each pass

	ServeNet  string  // the zoo net the fleet serves
	Names     int     // serving names m0..mN-1, all the same .dsz
	Rows      int     // rows per predict request
	OpenRate  float64 // > 0: open loop, Poisson arrivals at this many req/s; 0: closed loop
	MemBudget string  // deepszd -mem-budget per replica
	Window    float64 // length of the serving window, as a multiple of -seconds
}

// workloads is the fixed set; BENCHMARK.json names the same four.
var workloads = []workload{
	{
		Name: "warm_open",
		Why:  "Open loop at 100 req/s of 4-row lenet-300-100 requests, all layers resident: low-load latency, where the 2 ms batch window, the gateway hop and JSON dominate and codec/kernel work is near zero.",
		Nets: []string{models.LeNet300}, ServeNet: models.LeNet300,
		// Twice -seconds: the open loop's p95 is set by how often arrivals
		// collide, and 1500 arrivals left it ±5–9 % between runs.
		Names: 8, Rows: 4, OpenRate: 100, MemBudget: "0", Window: 2,
	},
	{
		Name: "bulk_closed",
		Why:  "Closed loop, 2 clients, 32-row vgg16-s requests that flush the batcher at once, resident: kernel-bound throughput with JSON of the ~0.3 MB body second; the batch window must not matter here.",
		Nets: []string{models.VGG16S}, ServeNet: models.VGG16S,
		Names: 2, Rows: 32, MemBudget: "0", Window: 1,
	},
	{
		Name: "thrash_closed",
		Why:  "Closed loop, 2 clients, 4-row requests on 8 lenet-300-100 names, cache room for ~2 per replica: the cache's miss/evict path, where codec decode, cache policy, prefetch and affinity set throughput.",
		Nets: []string{models.LeNet300}, ServeNet: models.LeNet300,
		Names: 8, Rows: 4, MemBudget: "250k", Window: 1,
	},
	{
		Name: "offline",
		Why:  "The paper's Fig. 7 axes: deepsz encode of all four zoo nets (codecs in the compress direction, assess's compress-decompress-forward loop), ratio, accuracy; then a short closed-loop window on alexnet-s",
		Nets: models.All(), ServeNet: models.AlexNetS,
		Names: 1, Rows: 4, MemBudget: "0", Window: 1.0 / 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
