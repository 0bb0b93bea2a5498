// Package platform provides the analytical latency model standing in
// for the paper's Nvidia Jetson TX-2 board. The search only ever
// consumes per-layer latencies and inter-layer penalties, so any
// latency source with the same structure exercises the identical
// search machinery; this model reproduces the structure that drives
// the paper's findings:
//
//   - a dependency-free Vanilla implementation that is ~45x slower
//     than the best CPU primitive mix,
//   - BLAS libraries whose GEMM lowerings (im2col/im2row/kn2row)
//     differ modestly, with OpenBLAS ahead of ATLAS,
//   - Winograd primitives (NNPACK/ArmCL) that beat GEMM on 3x3
//     stride-1 convolutions, and ArmCL's specialized depth-wise code,
//   - a GPU (cuDNN/cuBLAS) with enormous throughput but a real
//     per-call launch/sync overhead, a costly CPU<->GPU transfer, a
//     catastrophically bad depth-wise path (grouped-conv fallback,
//     as in 2018-era cuDNN) and no FC primitive at all,
//   - layout conversions (NCHW <-> NHWC) that tax library mixing.
//
// Latencies are seconds. The model is deterministic for a fixed seed;
// a small reproducible "fabrication" noise per (layer, primitive) and
// per-sample measurement jitter emulate real profiling.
package platform

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/primitives"
	"repro/internal/stats"
)

// Spec holds the hardware parameters of the modeled board.
type Spec struct {
	// CPUPeakGFLOPS is the single-thread fp32 peak of the CPU core.
	CPUPeakGFLOPS float64
	// GPUPeakGFLOPS is the fp32 peak of the GPGPU.
	GPUPeakGFLOPS float64
	// CPUMemGBps is the effective CPU memory bandwidth.
	CPUMemGBps float64
	// GPUMemGBps is the effective GPU memory bandwidth.
	GPUMemGBps float64
	// TransferGBps is the CPU<->GPU copy bandwidth.
	TransferGBps float64
	// TransferFixedSec is the fixed cost of one CPU<->GPU transfer
	// (driver call, synchronization).
	TransferFixedSec float64
	// GPULaunchSec is the per-primitive GPU launch+sync overhead.
	GPULaunchSec float64
	// CPUCallSec is the per-primitive CPU call overhead.
	CPUCallSec float64
	// SparseDensity is the non-zero fraction assumed for the Sparse
	// library's pruned weights.
	SparseDensity float64
	// GPUComputeRampFLOPs is the workload size at which a GPU kernel
	// reaches half of its peak utilization: small layers cannot fill
	// hundreds of cores, which is why tiny networks end up faster on
	// the CPU despite the GPU's raw throughput.
	GPUComputeRampFLOPs float64
	// GPUMemRampBytes is the analogous half-utilization point for
	// memory-bound GPU kernels.
	GPUMemRampBytes float64
}

// Platform is a board instance: a Spec plus a name, a noise seed and
// noise amplitudes.
type Platform struct {
	Spec
	// Name identifies the preset (e.g. "tx2-like").
	Name string
	// Seed makes all noise deterministic.
	Seed uint64
	// FabricationNoise is the relative spread of the fixed per-
	// (layer, primitive) latency perturbation (models units differing
	// from the datasheet). 0 disables it.
	FabricationNoise float64
	// MeasurementNoise is the relative spread of per-sample jitter
	// (models run-to-run variance the 50-image averaging smooths).
	MeasurementNoise float64
	// PowerSpec holds the active power draws for the energy model;
	// the zero value selects DefaultPower.
	PowerSpec PowerSpec
}

// JetsonTX2Like returns the calibrated heterogeneous preset used for
// the paper reproduction: one ARM A57-class thread plus a 256-core
// Pascal-class GPU.
func JetsonTX2Like() *Platform {
	return &Platform{
		Name: "tx2-like",
		Spec: Spec{
			CPUPeakGFLOPS:    8,   // 2 GHz, 4-wide fp32 FMA, sustained
			GPUPeakGFLOPS:    250, // 256 Pascal cores, sustained
			CPUMemGBps:       10,
			GPUMemGBps:       30,
			TransferGBps:     4,
			TransferFixedSec: 120e-6,
			GPULaunchSec:     60e-6,
			CPUCallSec:       1e-6,
			SparseDensity:    0.35,

			GPUComputeRampFLOPs: 300e6,
			GPUMemRampBytes:     4 << 20,
		},
		Seed:             1,
		FabricationNoise: 0.02,
		MeasurementNoise: 0.05,
	}
}

// CPUOnlyBoard returns a preset without a GPU (for ModeCPU studies on
// a plain embedded CPU board).
func CPUOnlyBoard() *Platform {
	p := JetsonTX2Like()
	p.Name = "cpu-only"
	p.GPUPeakGFLOPS = 0
	return p
}

// String returns the preset name.
func (pl *Platform) String() string { return pl.Name }

// noiseKey hashes the noise key "<seed>/<tag>/<layer>/<primitive>" of
// one (layer, primitive) pair; a measurement draw appends
// "/<sample>". These bytes fix every simulated table: see stats.Key.
func (pl *Platform) noiseKey(tag string, l *nn.Layer, p *primitives.Primitive) stats.Key {
	return stats.NewKey().Uint(pl.Seed).Byte('/').Str(tag).Byte('/').Str(l.Name).Byte('/').Str(p.Name)
}

// hash01 maps a noise key to a deterministic pseudo-uniform value in
// [0, 1), in steps of 1e-6.
func hash01(k stats.Key) float64 {
	return float64(k.Sum()%1_000_000) / 1_000_000
}

// effModel is the per-primitive efficiency triple: fraction of peak
// FLOPs achieved on compute-bound work, fraction of memory bandwidth
// achieved on memory-bound work, and fixed per-call overhead.
type effModel struct {
	effC, effM, overhead float64
	// extraTraffic is additional scratch traffic in bytes (lowering
	// matrices etc.), charged at effM bandwidth.
	extraTraffic int64
}

// loweringScratch returns the patch-matrix bytes a lowering method
// materializes and re-reads for a convolution layer.
func loweringScratch(l *nn.Layer, lower primitives.Lowering) int64 {
	p := l.Conv
	ckk := int64(l.InShape.C) * int64(p.KernelH) * int64(p.KernelW)
	spatial := int64(l.OutShape.H) * int64(l.OutShape.W)
	patch := ckk * spatial * 4
	switch lower {
	case primitives.Im2col, primitives.Im2row:
		return 2 * patch // write + read
	case primitives.Kn2row:
		// kn2row gathers a C x OHOW slab per kernel offset but never
		// holds the full patch matrix; effective traffic is lower.
		return patch + patch/4
	default:
		return 0
	}
}

// model returns the efficiency triple for executing layer l with
// primitive p. It panics if the primitive cannot implement the layer
// (callers must stick to primitives.Candidates).
func (pl *Platform) model(l *nn.Layer, p *primitives.Primitive) effModel {
	cpuCall := pl.CPUCallSec
	launch := pl.GPULaunchSec
	switch p.Lib {
	case primitives.Vanilla:
		switch l.Kind {
		case nn.OpConv, nn.OpDepthwiseConv:
			return effModel{effC: 0.03, effM: 0.30, overhead: cpuCall}
		case nn.OpFullyConnected:
			// A naive GEMV still streams its weights once, so even the
			// dependency-free loop is memory-bound, not compute-bound.
			return effModel{effC: 0.30, effM: 0.40, overhead: cpuCall}
		case nn.OpLRN:
			return effModel{effC: 0.02, effM: 0.30, overhead: cpuCall}
		case nn.OpFlatten, nn.OpDropout:
			return effModel{effC: 1, effM: 1e9, overhead: cpuCall} // view / identity
		default: // pool, relu, bn, softmax, concat, eltwise
			return effModel{effC: 0.10, effM: 0.40, overhead: cpuCall}
		}
	case primitives.ATLAS:
		e := effModel{effM: 0.55, overhead: 3 * cpuCall, extraTraffic: loweringScratch(l, p.Lower)}
		switch p.Lower {
		case primitives.Im2col:
			e.effC = 0.33
		case primitives.Im2row:
			e.effC = 0.36
		case primitives.Kn2row:
			e.effC = 0.30
		default: // GEMV for FC
			e.effC = 0.30
			e.effM = 0.60
		}
		return e
	case primitives.OpenBLAS:
		e := effModel{effM: 0.70, overhead: 3 * cpuCall, extraTraffic: loweringScratch(l, p.Lower)}
		switch p.Lower {
		case primitives.Im2col:
			e.effC = 0.52
		case primitives.Im2row:
			e.effC = 0.58
		case primitives.Kn2row:
			e.effC = 0.46
		default: // GEMV for FC, or depthwise via im2col candidates
			e.effC = 0.50
			e.effM = 0.85
		}
		if l.Kind == nn.OpDepthwiseConv {
			// Depth-wise degenerates to many skinny GEMMs.
			e.effC, e.effM = 0.15, 0.50
		}
		return e
	case primitives.NNPACK:
		switch p.Algo {
		case primitives.WinogradAlgo:
			// effC > 1 is relative to the layer's *direct* FLOP count:
			// F(2x2,3x3) does ~2.25x less arithmetic.
			return effModel{effC: 1.25, effM: 0.70, overhead: 4 * cpuCall}
		case primitives.FFTAlgo:
			// The frequency-domain product beats GEMM for big kernels
			// (arithmetic shrinks with K^2) but pays transform traffic.
			kGain := float64(l.Conv.KernelH*l.Conv.KernelW) / 12.0
			extra := int64(l.OutShape.Bytes()) * 4 // transformed tiles
			return effModel{effC: 0.45 * kGain, effM: 0.60, overhead: 6 * cpuCall, extraTraffic: extra}
		case primitives.GEMMAlgo:
			return effModel{effC: 0.48, effM: 0.70, overhead: 4 * cpuCall}
		default: // pool / relu / softmax fast paths
			return effModel{effC: 0.30, effM: 0.80, overhead: 2 * cpuCall}
		}
	case primitives.ArmCL:
		switch p.Algo {
		case primitives.WinogradAlgo:
			return effModel{effC: 1.40, effM: 0.75, overhead: 4 * cpuCall}
		case primitives.SpatialDW:
			// NEON depth-wise code runs close to the core's peak.
			return effModel{effC: 0.90, effM: 0.65, overhead: 2 * cpuCall}
		default: // GEMM conv
			return effModel{effC: 0.60, effM: 0.75, overhead: 4 * cpuCall}
		}
	case primitives.Sparse:
		d := pl.SparseDensity
		if l.Kind == nn.OpFullyConnected {
			// SpMV: memory-bound on the compressed weights.
			return effModel{effC: 0.25 / d, effM: 0.60 / d, overhead: 3 * cpuCall}
		}
		// Sparse conv: compute shrinks with density but CSR indexing
		// is irregular.
		return effModel{effC: 0.22 / d, effM: 0.40, overhead: 3 * cpuCall,
			extraTraffic: loweringScratch(l, primitives.Im2col)}
	case primitives.CuDNN:
		switch {
		case p.Algo == primitives.WinogradAlgo:
			return effModel{effC: 0.85, effM: 0.70, overhead: launch}
		case p.Algo == primitives.SpatialDW:
			// 2018-era cuDNN ran depth-wise as grouped convolution,
			// effectively one tiny kernel per channel group — an
			// order of magnitude off optimal, which is why the paper's
			// MobileNet result mixes in ArmCL's CPU depth-wise code.
			perGroup := launch * (1 + float64(l.InShape.C)/48)
			return effModel{effC: 0.02, effM: 0.15, overhead: perGroup}
		case p.Algo == primitives.GEMMAlgo: // implicit-GEMM conv
			return effModel{effC: 0.45, effM: 0.70, overhead: launch}
		default: // pool / relu / bn / lrn / softmax / concat / eltwise
			if l.Kind == nn.OpFlatten || l.Kind == nn.OpDropout {
				return effModel{effC: 1, effM: 1e9, overhead: launch / 4}
			}
			return effModel{effC: 0.30, effM: 0.80, overhead: launch}
		}
	case primitives.CuBLAS:
		return effModel{effC: 0.40, effM: 0.80, overhead: launch}
	}
	panic(fmt.Sprintf("platform: no model for %s on %s", p.Name, l.Name))
}

// LayerLatency returns the modeled base latency, in seconds, of
// executing layer l with primitive p (excluding any conversion or
// transfer penalties, which Conversion/Transfer cover). The value
// includes the deterministic fabrication noise but no measurement
// jitter; Sample adds the latter.
func (pl *Platform) LayerLatency(l *nn.Layer, p *primitives.Primitive) float64 {
	if l.Kind == nn.OpInput {
		return 0
	}
	m := pl.model(l, p)
	peak := pl.CPUPeakGFLOPS
	bw := pl.CPUMemGBps
	flops := float64(l.FLOPs())
	traffic := float64(l.Traffic() + m.extraTraffic)
	if l.Kind == nn.OpFlatten || l.Kind == nn.OpDropout {
		traffic = 0 // a view / identity, not a copy
	}
	if p.Proc == primitives.GPU {
		peak = pl.GPUPeakGFLOPS
		bw = pl.GPUMemGBps
		if peak == 0 {
			return math.Inf(1) // board has no GPU
		}
		// Utilization ramps: small workloads cannot fill the GPU.
		if pl.GPUComputeRampFLOPs > 0 {
			m.effC *= flops / (flops + pl.GPUComputeRampFLOPs)
		}
		if pl.GPUMemRampBytes > 0 && traffic > 0 {
			m.effM *= traffic / (traffic + pl.GPUMemRampBytes)
		}
	}
	var tCompute, tMem float64
	if flops > 0 {
		tCompute = flops / (peak * 1e9 * m.effC)
	}
	if traffic > 0 {
		tMem = traffic / (bw * 1e9 * m.effM)
	}
	t := m.overhead + math.Max(tCompute, tMem)
	if pl.FabricationNoise > 0 {
		u := hash01(pl.noiseKey("fab", l, p))
		t *= 1 + pl.FabricationNoise*(2*u-1)
	}
	return t
}

// Sample returns one noisy measurement of LayerLatency, as the
// profiling phase would observe for a single image. sample indexes
// the image so repeated profiling is reproducible.
func (pl *Platform) Sample(l *nn.Layer, p *primitives.Primitive, sample int) float64 {
	return pl.Pair(l, p).Sample(sample)
}

// Pair is one (layer, primitive) pair modelled once for repeated
// sampling: its LayerLatency and its measurement key up to the sample
// number are the same for every sample, so a draw costs one short
// hash. Pair(l, p).Sample(s) equals Sample(l, p, s) bit for bit.
type Pair struct {
	// Base is LayerLatency(l, p).
	Base  float64
	noise float64   // the platform's MeasurementNoise
	key   stats.Key // "<seed>/meas/<layer>/<primitive>"
}

// Pair models layer l under primitive p for repeated sampling.
func (pl *Platform) Pair(l *nn.Layer, p *primitives.Primitive) Pair {
	return Pair{Base: pl.LayerLatency(l, p), noise: pl.MeasurementNoise, key: pl.noiseKey("meas", l, p)}
}

// Sample returns the pair's measurement of image sample: Base with
// that sample's jitter.
func (q Pair) Sample(sample int) float64 {
	if q.noise <= 0 || math.IsInf(q.Base, 1) {
		return q.Base
	}
	u := hash01(q.key.Byte('/').Int(int64(sample)))
	return q.Base * (1 + q.noise*(2*u-1))
}

// ConversionLatency returns the cost of converting an activation of
// the given byte size between NCHW and NHWC on the given processor.
func (pl *Platform) ConversionLatency(bytes int64, proc primitives.Processor) float64 {
	if bytes == 0 {
		return 0
	}
	if proc == primitives.GPU {
		return pl.GPULaunchSec + 2*float64(bytes)/(pl.GPUMemGBps*1e9*0.5)
	}
	// Strided permutation reads+writes at poor locality.
	return pl.CPUCallSec + 2*float64(bytes)/(pl.CPUMemGBps*1e9*0.35)
}

// TransferLatency returns the cost of moving an activation of the
// given byte size between the CPU and GPU memory spaces (either
// direction).
func (pl *Platform) TransferLatency(bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	return pl.TransferFixedSec + float64(bytes)/(pl.TransferGBps*1e9)
}
