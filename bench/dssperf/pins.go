package main

// pins are the SHA-256 digests of each workload's pass output at its preset
// and the default seed: the Figure 5 result JSON, the two Q6 sweeps, the
// four OLTP runs' statistics, and the 18 api-hit bodies. A run with a pinned
// key fails on any other digest; other seeds print their digest without
// comparing it, so two commits can still be diffed by hand.
var pins = map[string]string{
	"fig5-exact/small/7":   "sha256:b4e7e9ce8ffdab122c4ecd74d07744afe62650b49412e256a7db4e3b359e1434",
	"scan-q6/small/7":      "sha256:0a85307ee66c2584de305907b38368415e7f032a2845724fc448d885a0f38840",
	"fig5-sampled/small/7": "sha256:640effd5678baa2a7eda031383ae24e0c11be81086e7788b7d5115f11dca3a5f",
	"oltp-write/small/7":   "sha256:8a13a5dabc611912a406cb7a5f917379bd0efcdbb0e2e33c319bd438e7745ed0",
	"api-hit/tiny/7":       "sha256:7089ac1617a13c9674bf3663cfe75335c2b66b24b34534682b8eed671aa9f9e5",
}
