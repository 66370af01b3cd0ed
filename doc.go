// Package cachewrite is a from-scratch Go reproduction of Norman P.
// Jouppi, "Cache Write Policies and Performance" (DEC WRL Research
// Report 91/12, December 1991; published at ISCA 1993).
//
// The implementation lives in internal packages:
//
//   - internal/cache — the first-level data-cache simulator with the
//     full write-hit (write-through/write-back) and write-miss
//     (fetch-on-write / write-validate / write-around /
//     write-invalidate) policy taxonomy, per-byte valid and dirty bits.
//   - internal/writebuffer — the coalescing write buffer of Fig 5.
//   - internal/writecache — the paper's proposed write cache (Figs 6-9).
//   - internal/hierarchy — two-level composition and back-side traffic.
//   - internal/workload — the six benchmark stand-ins of Table 1.
//   - internal/memsim, internal/trace — traced virtual memory and the
//     reference-stream representation.
//   - internal/experiments — one runner per paper figure/table.
//
// The benchmarks in bench_test.go regenerate every table and figure;
// cmd/paperfigs prints them.
package cachewrite
