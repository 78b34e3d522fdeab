//===- perfbench.cpp - Repository benchmark driver ------------------------===//
//
// Part of the SYCL-MLIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the library through its public API from one process and writes
/// the raw measurements of one benchmark run as JSON. `perfbench/run.py`
/// builds this binary, runs it, folds the trace it leaves into per-layer
/// self times and prints the metrics.
///
/// Workloads (all closed loop, 38 in-tree programs, order shuffled by the
/// seed in every sweep):
///  - compile: parseSourceString + verify + Compiler::compileFor (SYCL-MLIR
///    flow) of each program's printed device module for virtual-gpu and
///    virtual-cpu, as host tasks on an rt::Scheduler pool. Setup fills an
///    empty disk cache (every request misses and stores). Every sweep has a
///    cold phase (memory tier cleared, disk tier off: every request runs
///    the pipeline) and a warm phase (memory tier cleared, fresh contexts,
///    the setup's disk cache: every request is a disk hit). The stores run
///    in setup, not in the cold phase, because file creation on a shared
///    virtual disk swung the cold-phase median by a third between runs;
///    their cost shows in setup_s instead.
///  - exec-lowered / exec-highlevel: compileFor (a memory hit: everything
///    is compiled during setup) + rt::runProgram of each program under the
///    DPC++ and SYCL-MLIR flows on virtual-cpu / virtual-gpu, one program
///    at a time, with kernel launches on the rt::Context's worker pool.
///
/// A run is: the setup repeated kSetups times (the last one is kept),
/// then untimed warm-up sweeps, then whole sweeps until the next one would
/// overrun --seconds. With --trace-file the measurement is repeated once
/// more with tracing on (for at most 6 seconds), and the trace (program
/// spans plus this driver's own spans around every public call) is written
/// to that file.
///
/// Every op is checked: compile failures, run errors, failed program
/// validation, a warm-phase module whose printed IR differs from the
/// cold-phase module of the same key, and a simulated makespan that
/// differs from the first sweep's all count as failed ops.
///
//===----------------------------------------------------------------------===//

#include "bench/workloads/Workloads.h"
#include "core/CompileService.h"
#include "core/Compiler.h"
#include "exec/Bytecode.h"
#include "exec/TargetRegistry.h"
#include "frontend/SourceProgram.h"
#include "ir/MLIRContext.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"
#include "support/Telemetry.h"
#include "transform/Passes.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace smlir;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Knobs read from the environment by the library that would change the
/// measured program. The benchmark pins everything else through setters.
constexpr const char *kRefusedKnobs[] = {
    "SMLIR_EXEC_TIER",  "SMLIR_BC_DISPATCH",    "SMLIR_BC_FUSION",
    "SMLIR_BC_INBOUNDS", "SMLIR_BC_VALIDATE",   "SMLIR_BC_PROFILE",
    "SMLIR_TRACE",      "SMLIR_METRICS",        "SMLIR_DEFAULT_TARGET",
    "SMLIR_CACHE_DIR"};

/// Setups per run; setup_s is their median.
constexpr unsigned kSetups = 15;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  std::string WorkDir;
  std::string Out;
  std::string TraceFile;
};

/// CPUs this process may run on.
unsigned availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t countOps(Operation *Root) {
  uint64_t N = 0;
  Root->walk([&](Operation *) { ++N; });
  return N;
}

/// Distinct kernel names a program submits, in first-submission order.
std::vector<std::string> kernelNames(const frontend::SourceProgram &P) {
  std::vector<std::string> Names;
  std::set<std::string> Seen;
  for (const frontend::SubmitDecl &S : P.Submits)
    if (Seen.insert(S.Kernel).second)
      Names.push_back(S.Kernel);
  return Names;
}

uint64_t directorySize(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.is_regular_file(EC))
      Bytes += Entry.file_size(EC);
  return Bytes;
}

/// Failed ops, recorded from any worker.
class FailureLog {
public:
  void add(std::string Why) {
    std::lock_guard<std::mutex> Lock(M);
    ++Count;
    if (Messages.size() < 20)
      Messages.push_back(std::move(Why));
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> Lock(M);
    return Count;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> Lock(M);
    return Messages;
  }

private:
  mutable std::mutex M;
  uint64_t Count = 0;
  std::vector<std::string> Messages;
};

/// Everything measured in one window of whole sweeps.
struct Window {
  double Seconds = 0.0;
  unsigned Sweeps = 0;
  uint64_t Ops = 0;
  std::vector<double> OpMs, ColdMs, WarmMs;
  core::CompileService::Stats Service;
  uint64_t BytecodeLaunches = 0, InterpreterLaunches = 0;
  /// Steps of programs whose kernels all ran on one tier (exec workloads).
  uint64_t BytecodeSteps = 0, InterpreterSteps = 0;
};

/// Per-workload results that do not depend on the window.
struct Totals {
  std::vector<double> SetupS;
  /// Per-setup layer times (ms).
  std::vector<double> BuildMs, PrintMs, SetupCompileMs, TranslateMs;
  /// Compiles that missed every cache tier during setup (exec workloads).
  std::vector<double> SetupColdMs;
  uint64_t SourceOps = 0, OptimizedOps = 0, BytecodeInsts = 0;
  uint64_t StepsPerSweep = 0, LaunchesPerSweep = 0;
  double SimTimePerSweep = 0.0;
  uint64_t DiskBytes = 0;
  /// Program -> (DPC++ makespan, SYCL-MLIR makespan) (exec workloads).
  std::vector<std::pair<std::string, std::pair<double, double>>> Sim;
};

core::CompileService::Stats
diffStats(const core::CompileService::Stats &A,
          const core::CompileService::Stats &B) {
  core::CompileService::Stats D;
  D.MemoryHits = B.MemoryHits - A.MemoryHits;
  D.Rematerialized = B.Rematerialized - A.Rematerialized;
  D.DiskHits = B.DiskHits - A.DiskHits;
  D.DiskStores = B.DiskStores - A.DiskStores;
  D.DiskInvalid = B.DiskInvalid - A.DiskInvalid;
  D.Misses = B.Misses - A.Misses;
  D.InFlightWaits = B.InFlightWaits - A.InFlightWaits;
  return D;
}

/// The sweep loop shared by all workloads: runs whole sweeps, never
/// starting one that would end past \p Seconds (at least one runs).
template <typename SweepFn>
void runSweeps(double Seconds, Window &W, SweepFn &&Sweep) {
  telemetry::Counter &BcLaunches = telemetry::counter("vm.launches.bytecode");
  telemetry::Counter &InterpLaunches =
      telemetry::counter("vm.launches.interpreter");
  uint64_t Bc0 = BcLaunches.get(), Interp0 = InterpLaunches.get();
  core::CompileService::Stats S0 = core::CompileService::get().getStats();
  auto Start = Clock::now();
  double LastSweepMs = 0.0;
  while (W.Sweeps == 0 || msSince(Start) + LastSweepMs <= Seconds * 1000.0) {
    auto SweepStart = Clock::now();
    Sweep();
    LastSweepMs = msSince(SweepStart);
    ++W.Sweeps;
  }
  W.Seconds = msSince(Start) / 1000.0;
  W.Service = diffStats(S0, core::CompileService::get().getStats());
  W.BytecodeLaunches = BcLaunches.get() - Bc0;
  W.InterpreterLaunches = InterpLaunches.get() - Interp0;
  W.Ops = W.OpMs.size();
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

class CompileWorkload {
public:
  CompileWorkload(const std::string &WorkDir, unsigned Workers,
                  FailureLog &Fails)
      : Workers(Workers), Fails(Fails), CacheDir(WorkDir + "/disk-cache") {
    for (const char *Name : {"virtual-gpu", "virtual-cpu"})
      Targets.push_back(exec::resolveTarget(Name));
  }

  /// Builds and prints the 38 programs, then compiles each of them for
  /// both targets into an empty disk cache.
  void setup(Totals &T) {
    auto Start = Clock::now();
    double BuildMs = 0.0, PrintMs = 0.0;
    Inputs.clear();
    uint64_t SourceOps = 0;
    for (const workloads::Workload &W : workloads::getAllWorkloads()) {
      MLIRContext Ctx;
      registerAllDialects(Ctx);
      auto BuildStart = Clock::now();
      frontend::SourceProgram Program = W.Build(Ctx);
      BuildMs += msSince(BuildStart);
      if (!Program.DeviceModule) {
        std::cerr << "perfbench: workload '" << W.Name
                  << "' has no device module\n";
        std::exit(1);
      }
      auto PrintStart = Clock::now();
      Inputs.push_back({W.Name, Program.DeviceModule.get()->str()});
      PrintMs += msSince(PrintStart);
      SourceOps += countOps(Program.DeviceModule.get());
    }
    Order.resize(Inputs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    auto StoreStart = Clock::now();
    {
      std::error_code EC;
      std::filesystem::remove_all(CacheDir, EC);
      std::filesystem::create_directories(CacheDir, EC);
      rt::Scheduler Pool(Workers);
      Window Discarded;
      runPhase(Pool, Phase::Store, Discarded);
    }
    T.SetupS.push_back(msSince(Start) / 1000.0);
    T.BuildMs.push_back(BuildMs);
    T.PrintMs.push_back(PrintMs);
    T.SetupCompileMs.push_back(msSince(StoreStart));
    T.SourceOps = SourceOps * Targets.size();
    T.DiskBytes = directorySize(CacheDir);
  }

  void measure(double Seconds, Window &W, Totals &T, std::mt19937_64 &Rng) {
    rt::Scheduler Pool(Workers);
    runSweeps(Seconds, W, [&] {
      std::shuffle(Order.begin(), Order.end(), Rng);
      runPhase(Pool, Phase::Cold, W);
      runPhase(Pool, Phase::Warm, W);
    });
    T.OptimizedOps = OptimizedOps;
    T.BytecodeInsts = BytecodeInsts;
  }

private:
  struct Input {
    std::string Name;
    std::string IR;
  };

  /// Store: miss and write the disk cache. Cold: miss, disk tier off.
  /// Warm: disk hit. The memory tier starts empty in every phase.
  enum class Phase { Store, Cold, Warm };

  void runPhase(rt::Scheduler &Pool, Phase P, Window &W) {
    core::CompileService &Service = core::CompileService::get();
    Service.clearMemoryTier();
    Service.setDiskCacheDir(P == Phase::Cold ? "" : CacheDir);
    bool Warm = P == Phase::Warm;
    std::vector<double> Ms(Order.size() * Targets.size(), -1.0);
    size_t Slot = 0;
    for (size_t Program : Order)
      for (size_t T = 0; T < Targets.size(); ++T, ++Slot) {
        auto Node = std::make_shared<rt::TaskNode>();
        Node->KernelName = "compile:" + Inputs[Program].Name;
        Node->Done = rt::Event::makePending(Node->KernelName);
        Node->HostWork = [this, &Ms, Slot, Program, T,
                          Warm](std::string *) -> LogicalResult {
          Ms[Slot] = runOp(Program, T, Warm);
          return success();
        };
        Pool.submit(std::move(Node));
      }
    Pool.waitAll();
    for (double V : Ms) {
      if (V < 0.0)
        continue; // Failed before timing ended; already logged.
      W.OpMs.push_back(V);
      (Warm ? W.WarmMs : W.ColdMs).push_back(V);
    }
  }

  /// One op; returns its latency in ms, or -1 when it failed.
  double runOp(size_t Program, size_t T, bool Warm) {
    const Input &In = Inputs[Program];
    const exec::TargetBackend &Target = *Targets[T];
    std::string Key = In.Name + " [" + std::string(Target.getMnemonic()) + "]";
    std::unique_ptr<MLIRContext> Ctx;
    std::unique_ptr<frontend::SourceProgram> Source;
    std::unique_ptr<core::Executable> Exe;
    std::string Error;
    core::CompileOutcome Outcome = core::CompileOutcome::Failed;

    auto Start = Clock::now();
    {
      telemetry::Span Op("bench.op", "bench");
      Op.arg("phase", Warm ? "warm" : "cold");
      {
        telemetry::Span S("ir.context", "bench");
        Ctx = std::make_unique<MLIRContext>();
        registerAllDialects(*Ctx);
      }
      OwningOpRef Module;
      {
        telemetry::Span S("ir.parse", "bench");
        Module = parseSourceString(Ctx.get(), In.IR, &Error);
      }
      if (!Module) {
        Fails.add(Key + ": parse error: " + Error);
        return -1.0;
      }
      bool Verified = false;
      {
        telemetry::Span S("ir.verify", "bench");
        Verified = verify(Module.get(), &Error).succeeded();
      }
      if (!Verified) {
        Fails.add(Key + ": verification error: " + Error);
        return -1.0;
      }
      Source = std::make_unique<frontend::SourceProgram>(Ctx.get());
      Source->DeviceModule = std::move(Module);
      {
        telemetry::Span S("core.compile", "bench");
        Exe = Comp.compileFor(*Source, Target, &Error, &Outcome);
        S.arg("outcome", core::stringifyOutcome(Outcome));
      }
    }
    double Ms = msSince(Start);
    if (!Exe) {
      Fails.add(Key + ": compile error: " + Error);
      return -1.0;
    }

    telemetry::Span Check("bench.check", "bench");
    std::string Optimized = Exe->getModule().getOperation()->str();
    uint64_t Insts = 0;
    if (Exe->getKernelForm() == exec::KernelForm::LoweredSCF)
      for (const std::string &Kernel : kernelNames(*Source))
        if (const exec::bc::Function *Fn = Exe->getKernelBytecode(Kernel))
          Insts += Fn->Code.size();
    std::lock_guard<std::mutex> Lock(RefMutex);
    // try_emplace leaves Optimized untouched when the key already exists.
    auto [It, Inserted] =
        Reference.try_emplace(Key, std::move(Optimized), Insts);
    if (Inserted) {
      OptimizedOps += countOps(Exe->getModule().getOperation());
      BytecodeInsts += Insts;
    } else if (It->second.first != Optimized || It->second.second != Insts) {
      Fails.add(Key + ": " + (Warm ? "warm" : "cold") +
                "-phase module differs from the first cold-phase module");
      return -1.0;
    }
    return Ms;
  }

  unsigned Workers;
  FailureLog &Fails;
  std::string CacheDir;
  std::vector<const exec::TargetBackend *> Targets;
  std::vector<Input> Inputs;
  /// Program submission order, reshuffled every sweep.
  std::vector<size_t> Order;
  core::Compiler Comp{core::CompilerOptions{}};

  std::mutex RefMutex;
  /// Key -> (printed optimized module, bytecode instruction count) of the
  /// first cold-phase compile of that key.
  std::map<std::string, std::pair<std::string, uint64_t>> Reference;
  uint64_t OptimizedOps = 0, BytecodeInsts = 0;
};

//===----------------------------------------------------------------------===//
// exec-lowered / exec-highlevel
//===----------------------------------------------------------------------===//

class ExecWorkload {
public:
  ExecWorkload(std::string Target, unsigned Workers, FailureLog &Fails)
      : Target(std::move(Target)), Workers(Workers), Fails(Fails) {
    for (core::CompilerFlow Flow :
         {core::CompilerFlow::DPCPP, core::CompilerFlow::SYCLMLIR}) {
      core::CompilerOptions CompOpts;
      CompOpts.Flow = Flow;
      Compilers.push_back(std::make_unique<core::Compiler>(CompOpts));
    }
  }

  /// Builds the 38 programs and compiles them under both flows, missing
  /// every cache tier; translates every lowered kernel to bytecode.
  void setup(Totals &T) {
    Programs.clear();
    Ctx.reset();
    core::CompileService::get().clearMemoryTier();

    auto Start = Clock::now();
    double BuildMs = 0.0, TranslateMs = 0.0;
    Ctx = std::make_unique<MLIRContext>();
    registerAllDialects(*Ctx);
    for (const workloads::Workload &W : workloads::getAllWorkloads()) {
      auto BuildStart = Clock::now();
      auto Source = std::make_unique<frontend::SourceProgram>(W.Build(*Ctx));
      BuildMs += msSince(BuildStart);
      std::vector<std::string> Kernels = kernelNames(*Source);
      Programs.push_back({W.Name, std::move(Source), std::move(Kernels)});
    }
    // One host task per program on a pool, as in the compile workload: the
    // speed of a lone thread here depends on which CPU it lands on, and
    // spreading the compiles over the pool averages that out.
    std::vector<SetupResult> Results(Programs.size());
    auto CompileStart = Clock::now();
    {
      rt::Scheduler Pool(Workers);
      for (size_t I = 0; I < Programs.size(); ++I) {
        auto Node = std::make_shared<rt::TaskNode>();
        Node->KernelName = "setup:" + Programs[I].Name;
        Node->Done = rt::Event::makePending(Node->KernelName);
        Node->HostWork = [this, &Results, I](std::string *) -> LogicalResult {
          Results[I] = compileProgram(Programs[I]);
          return success();
        };
        Pool.submit(std::move(Node));
      }
      Pool.waitAll();
    }
    T.SetupCompileMs.push_back(msSince(CompileStart));
    uint64_t SourceOps = 0, OptimizedOps = 0, Insts = 0;
    for (size_t I = 0; I < Programs.size(); ++I) {
      const SetupResult &R = Results[I];
      if (!R.Error.empty()) {
        std::cerr << "perfbench: setup compile of '" << Programs[I].Name
                  << "' failed: " << R.Error << "\n";
        std::exit(1);
      }
      T.SetupColdMs.insert(T.SetupColdMs.end(), R.ColdMs.begin(),
                           R.ColdMs.end());
      TranslateMs += R.TranslateMs;
      SourceOps += countOps(Programs[I].Source->DeviceModule.get());
      OptimizedOps += R.OptimizedOps;
      Insts += R.BytecodeInsts;
    }
    T.SetupS.push_back(msSince(Start) / 1000.0);
    T.BuildMs.push_back(BuildMs);
    T.TranslateMs.push_back(TranslateMs);
    T.SourceOps = SourceOps;
    T.OptimizedOps = OptimizedOps;
    T.BytecodeInsts = Insts;
  }

  void measure(double Seconds, Window &W, Totals &T, std::mt19937_64 &Rng) {
    runSweeps(Seconds, W, [&] {
      // A fresh context per sweep: device allocations live as long as
      // the context, so this bounds memory to one sweep's buffers.
      rt::Context RtCtx(Workers);
      std::vector<size_t> Order(Programs.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t I : Order)
        for (size_t Flow = 0; Flow < Compilers.size(); ++Flow)
          runOp(Programs[I], Flow, RtCtx, W);
    });
    T.StepsPerSweep = 0;
    T.LaunchesPerSweep = 0;
    T.SimTimePerSweep = 0.0;
    T.Sim.clear();
    for (const Program &P : Programs) {
      for (const Reference &R : P.Ref) {
        T.StepsPerSweep += R.Steps;
        T.LaunchesPerSweep += R.Launches;
        T.SimTimePerSweep += R.Makespan;
      }
      T.Sim.push_back({P.Name, {P.Ref[0].Makespan, P.Ref[1].Makespan}});
    }
  }

private:
  enum class Tier { Bytecode, Interpreter, Mixed };
  struct Reference {
    bool Set = false;
    double Makespan = 0.0;
    uint64_t Steps = 0, Launches = 0;
  };
  struct Program {
    std::string Name;
    std::unique_ptr<frontend::SourceProgram> Source;
    std::vector<std::string> Kernels;
    /// The tier every kernel of the program runs on.
    Tier Class = Tier::Mixed;
    /// Per flow: the first sweep's results, which every later sweep must
    /// reproduce exactly.
    Reference Ref[2];
  };
  /// What compiling one program under both flows during setup produced.
  struct SetupResult {
    std::string Error;
    /// Latency of each compile that missed every cache tier.
    std::vector<double> ColdMs;
    double TranslateMs = 0.0;
    uint64_t OptimizedOps = 0, BytecodeInsts = 0;
  };

  /// Compiles \p P under both flows and translates its lowered kernels to
  /// bytecode; classifies the tier its kernels run on.
  SetupResult compileProgram(Program &P) {
    SetupResult R;
    size_t Bytecode = 0, Kernels = 0;
    for (auto &Comp : Compilers) {
      core::CompileOutcome Outcome = core::CompileOutcome::Failed;
      auto CompileStart = Clock::now();
      std::unique_ptr<core::Executable> Exe =
          Comp->compileFor(*P.Source, Target, &R.Error, &Outcome);
      double Ms = msSince(CompileStart);
      if (!Exe) {
        if (R.Error.empty())
          R.Error = "compile failed";
        return R;
      }
      if (Outcome == core::CompileOutcome::Miss)
        R.ColdMs.push_back(Ms);
      R.OptimizedOps += countOps(Exe->getModule().getOperation());
      auto TranslateStart = Clock::now();
      if (Exe->getKernelForm() == exec::KernelForm::LoweredSCF)
        for (const std::string &Kernel : P.Kernels)
          if (const exec::bc::Function *Fn = Exe->getKernelBytecode(Kernel)) {
            R.BytecodeInsts += Fn->Code.size();
            ++Bytecode;
          }
      R.TranslateMs += msSince(TranslateStart);
      Kernels += P.Kernels.size();
    }
    P.Class = Bytecode == Kernels ? Tier::Bytecode
              : Bytecode == 0     ? Tier::Interpreter
                                  : Tier::Mixed;
    return R;
  }

  void runOp(Program &P, size_t Flow, rt::Context &RtCtx, Window &W) {
    std::string Key = P.Name + (Flow == 0 ? " [DPC++]" : " [SYCL-MLIR]");
    std::string Error;
    core::CompileOutcome Outcome = core::CompileOutcome::Failed;
    std::unique_ptr<core::Executable> Exe;
    rt::RunResult Result;
    double CompileMs = 0.0;
    auto Start = Clock::now();
    {
      telemetry::Span Op("bench.op", "bench");
      {
        telemetry::Span S("core.compile", "bench");
        Exe = Compilers[Flow]->compileFor(*P.Source, Target, &Error, &Outcome);
        S.arg("outcome", core::stringifyOutcome(Outcome));
      }
      CompileMs = msSince(Start);
      if (Exe) {
        telemetry::Span S("runtime.run_program", "bench");
        Result = rt::runProgram(*P.Source, *Exe, RtCtx, Target);
      }
    }
    double Ms = msSince(Start);

    if (!Exe) {
      Fails.add(Key + ": compile error: " + Error);
      return;
    }
    if (!Result.Success) {
      Fails.add(Key + ": run error: " + Result.Error);
      return;
    }
    if (!Result.Validated) {
      Fails.add(Key + ": SourceProgram::Verify rejected the output");
      return;
    }
    Reference &Ref = P.Ref[Flow];
    const rt::QueueStats &Stats = Result.Stats;
    if (!Ref.Set) {
      Ref = {true, Stats.Makespan, Stats.Aggregate.StepsExecuted,
             Stats.NumLaunches};
    } else if (Ref.Makespan != Stats.Makespan ||
               Ref.Steps != Stats.Aggregate.StepsExecuted ||
               Ref.Launches != Stats.NumLaunches) {
      Fails.add(Key + ": simulated result differs from the first sweep");
      return;
    }
    W.OpMs.push_back(Ms);
    W.WarmMs.push_back(CompileMs);
    if (P.Class == Tier::Bytecode)
      W.BytecodeSteps += Stats.Aggregate.StepsExecuted;
    else if (P.Class == Tier::Interpreter)
      W.InterpreterSteps += Stats.Aggregate.StepsExecuted;
  }

  std::string Target;
  unsigned Workers;
  FailureLog &Fails;
  std::vector<std::unique_ptr<core::Compiler>> Compilers;
  /// Declared before Programs: the programs' IR lives in this context.
  std::unique_ptr<MLIRContext> Ctx;
  std::vector<Program> Programs;
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(std::string_view S) {
  std::string Out = "\"";
  telemetry::appendJsonEscaped(Out, S);
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonArray(const std::vector<double> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += (I ? "," : "") + jsonNumber(Values[I]);
  return Out + "]";
}

std::string jsonWindow(const Window &W) {
  std::ostringstream OS;
  const core::CompileService::Stats &S = W.Service;
  OS << "{\"seconds\":" << jsonNumber(W.Seconds) << ",\"sweeps\":" << W.Sweeps
     << ",\"ops\":" << W.Ops << ",\"op_ms\":" << jsonArray(W.OpMs)
     << ",\"cold_ms\":" << jsonArray(W.ColdMs)
     << ",\"warm_ms\":" << jsonArray(W.WarmMs)
     << ",\"service\":{\"misses\":" << S.Misses
     << ",\"disk_hits\":" << S.DiskHits << ",\"memory_hits\":" << S.MemoryHits
     << ",\"rematerialized\":" << S.Rematerialized
     << ",\"disk_invalid\":" << S.DiskInvalid
     << ",\"disk_stores\":" << S.DiskStores
     << ",\"in_flight_waits\":" << S.InFlightWaits << "}"
     << ",\"launches_bytecode\":" << W.BytecodeLaunches
     << ",\"launches_interpreter\":" << W.InterpreterLaunches
     << ",\"steps_bytecode\":" << W.BytecodeSteps
     << ",\"steps_interpreter\":" << W.InterpreterSteps << "}";
  return OS.str();
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string_view Flag = Argv[I];
    std::string Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Flag == "--work-dir") {
      Opts.WorkDir = Value;
    } else if (Flag == "--out") {
      Opts.Out = Value;
    } else if (Flag == "--trace-file") {
      Opts.TraceFile = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !Opts.Workload.empty() && !Opts.WorkDir.empty() &&
         !Opts.Out.empty() && Opts.Seconds > 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  for (const char *Knob : kRefusedKnobs)
    if (const char *Value = std::getenv(Knob)) {
      std::cerr << "perfbench: refusing to run with " << Knob << "=" << Value
                << " set: it changes the measured program; unset it\n";
      return 2;
    }

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::cerr << "usage: perfbench --workload compile|exec-lowered|"
                 "exec-highlevel --seed <n> --seconds <s> --work-dir <dir> "
                 "--out <file> [--trace-file <file>]\n";
    return 2;
  }

  registerAllPasses();
  exec::registerAllTargets();

  unsigned Cpus = availableCpus();
  unsigned Workers = std::min(4u, Cpus);
  core::CompileService &Service = core::CompileService::get();
  Service.setMemoryCapacity(256);
  Service.setDiskCacheDir("");

  FailureLog Fails;
  Totals T;
  Window Untraced, Traced;
  std::mt19937_64 Rng(Opts.Seed);
  std::string Pipelines;

  auto Run = [&](auto &Workload) {
    for (unsigned I = 0; I < kSetups; ++I)
      Workload.setup(T);
    // Untimed sweeps first (about two seconds' worth, at least one): the
    // first sweeps of a process run several times slower while the
    // allocator's pools and thresholds settle.
    Window WarmUp;
    Workload.measure(2.0, WarmUp, T, Rng);
    Workload.measure(Opts.Seconds, Untraced, T, Rng);
    if (Opts.TraceFile.empty())
      return true;
    // The traced window is capped: its spans are held in memory and the
    // trace of a long compile window runs to tens of megabytes.
    telemetry::startTrace();
    Workload.measure(std::min(Opts.Seconds, 6.0), Traced, T, Rng);
    return telemetry::writeTraceFile(Opts.TraceFile);
  };

  bool Written = true;
  if (Opts.Workload == "compile") {
    CompileWorkload W(Opts.WorkDir, Workers, Fails);
    Written = Run(W);
  } else if (Opts.Workload == "exec-lowered") {
    ExecWorkload W("virtual-cpu", Workers, Fails);
    Written = Run(W);
  } else if (Opts.Workload == "exec-highlevel") {
    ExecWorkload W("virtual-gpu", Workers, Fails);
    Written = Run(W);
  } else {
    std::cerr << "perfbench: unknown workload '" << Opts.Workload << "'\n";
    return 2;
  }
  if (!Written) {
    std::cerr << "perfbench: cannot write trace '" << Opts.TraceFile << "'\n";
    return 1;
  }

  for (const char *Name : {"virtual-gpu", "virtual-cpu"}) {
    core::CompilerOptions SYCLMLIR;
    if (!Pipelines.empty())
      Pipelines += ",";
    Pipelines += jsonString(Name) + ":" +
                 jsonString(core::Compiler::getPipeline(
                     SYCLMLIR, *exec::resolveTarget(Name)));
  }

  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);

  std::ostringstream OS;
  OS << "{\"provenance\":{\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":"
     << jsonString(std::string(PERFBENCH_COMPILER_ID) + " " +
                   PERFBENCH_COMPILER_VERSION)
     << ",\"nproc\":" << Cpus << ",\"workers\":" << Workers
     << ",\"memory_capacity\":256,\"seed\":" << Opts.Seed
     << ",\"setups\":" << kSetups << "}"
     << ",\"pipelines\":{" << Pipelines << "}"
     << ",\"setup_s\":" << jsonArray(T.SetupS)
     << ",\"setup_layers\":{\"frontend.build_ms\":" << jsonArray(T.BuildMs)
     << ",\"ir.print_ms\":" << jsonArray(T.PrintMs)
     << ",\"core.setup_compile_ms\":" << jsonArray(T.SetupCompileMs)
     << ",\"exec.bc_translate_ms\":" << jsonArray(T.TranslateMs) << "}"
     << ",\"setup_cold_ms\":" << jsonArray(T.SetupColdMs)
     << ",\"counts\":{\"ir.source_ops\":" << T.SourceOps
     << ",\"ir.optimized_ops\":" << T.OptimizedOps
     << ",\"exec.bc_insts\":" << T.BytecodeInsts
     << ",\"exec.steps\":" << T.StepsPerSweep
     << ",\"runtime.launches\":" << T.LaunchesPerSweep
     << ",\"exec.sim_time\":" << jsonNumber(T.SimTimePerSweep)
     << ",\"core.disk_bytes\":" << T.DiskBytes << "}"
     << ",\"sim\":[";
  for (size_t I = 0; I < T.Sim.size(); ++I)
    OS << (I ? "," : "") << "[" << jsonString(T.Sim[I].first) << ","
       << jsonNumber(T.Sim[I].second.first) << ","
       << jsonNumber(T.Sim[I].second.second) << "]";
  OS << "],\"peak_rss_kb\":" << Usage.ru_maxrss
     << ",\"failed\":" << Fails.count() << ",\"failures\":[";
  std::vector<std::string> Messages = Fails.messages();
  for (size_t I = 0; I < Messages.size(); ++I)
    OS << (I ? "," : "") << jsonString(Messages[I]);
  OS << "],\"untraced\":" << jsonWindow(Untraced);
  if (!Opts.TraceFile.empty())
    OS << ",\"traced\":" << jsonWindow(Traced);
  OS << "}\n";

  std::ofstream Out(Opts.Out, std::ios::trunc);
  Out << OS.str();
  if (!Out) {
    std::cerr << "perfbench: cannot write '" << Opts.Out << "'\n";
    return 1;
  }
  return 0;
}
