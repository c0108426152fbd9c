#include "fill/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "density/fft_density.hpp"
#include "density/metrics.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_flatten.hpp"
#include "gds/stream_reader.hpp"
#include "gds/stream_writer.hpp"
#include "geometry/decompose.hpp"
#include "geometry/polygon.hpp"
#include "layout/fill_region.hpp"
#include "layout/shard_store.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

namespace ofl::fill {
namespace {

inline void checkCancel(const CancelToken* token) {
  if (token != nullptr) token->throwIfExpired();
}

bool setError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// GDSII vs OFL-OASIS by magic (loadFlatLayout tries GDS then OASIS; for
// well-formed files the leading bytes decide it).
bool isOasisFile(const std::string& path) {
  static constexpr char kOasisMagic[] = "OFLOASIS1\n";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char head[sizeof(kOasisMagic) - 1];
  const std::size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return got == sizeof(head) &&
         std::memcmp(head, kOasisMagic, sizeof(head)) == 0;
}

bool scanFile(const std::string& path, gds::StreamEvents& events,
              std::string* error, std::size_t chunkBytes) {
  if (isOasisFile(path)) {
    gds::OasisStreamReader::Options o;
    o.chunkBytes = chunkBytes;
    return gds::OasisStreamReader::scan(path, events, error, o);
  }
  gds::StreamReader::Options o;
  o.chunkBytes = chunkBytes;
  return gds::StreamReader::scan(path, events, error, o);
}

// Pre-scan sink with loadFlatLayout's bbox/maxLayer semantics: every
// structure's boundaries count, unflattened.
class ExtentScan : public gds::StreamEvents {
 public:
  void onBoundary(const gds::Boundary& b) override {
    maxLayer = std::max<int>(maxLayer, b.layer);
    bbox = bbox.bboxUnion(geom::Polygon(b.vertices).bbox());
  }
  geom::Rect bbox;  // default-constructed {0,0,0,0}, like loadFlatLayout
  int maxLayer = 0;
};

std::string directoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

bool ShardedEngine::scanExtents(const std::string& path, geom::Rect* bbox,
                                int* maxLayer, std::string* error) {
  ExtentScan scan;
  if (!scanFile(path, scan, error, 256 * 1024)) return false;
  if (bbox != nullptr) *bbox = scan.bbox;
  if (maxLayer != nullptr) *maxLayer = scan.maxLayer;
  return true;
}

bool ShardedEngine::runFile(const std::string& inputPath,
                            const std::string& outputPath,
                            const std::optional<geom::Rect>& die,
                            ShardedReport* report, std::string* error) const {
  ShardedReport localReport;
  ShardedReport& rep = report != nullptr ? *report : localReport;
  rep = ShardedReport{};
  Timer total;
  const FillEngineOptions& eng = options_.engine;
  const double jid = static_cast<double>(eng.jobId);
  obs::ScopedSpan runSpan("engine.sharded_run", "engine", {{"job", jid}});

  // --- Pre-scan: die extents and layer count (bounded memory) ---
  geom::Rect bbox;
  int maxLayer = 0;
  if (!scanExtents(inputPath, &bbox, &maxLayer, error)) return false;
  const geom::Rect effectiveDie = die.value_or(bbox);
  if (effectiveDie.empty()) {
    return setError(error, "layout is empty and no die given");
  }
  const int numLayers = std::max(maxLayer, 1);
  const layout::WindowGrid grid(effectiveDie, eng.windowSize);
  const int cols = grid.cols(), rows = grid.rows();
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  rep.cols = cols;
  rep.rows = rows;
  ThreadPool pool(eng.numThreads);
  rep.fill.threadsUsed = pool.size();

  const std::size_t budgetBytes = options_.memBudgetMiB << 20;
  layout::ShardStore::Options storeOptions;
  storeOptions.memBudgetBytes = std::max<std::size_t>(budgetBytes / 2, 1u << 20);
  storeOptions.spillDir =
      options_.spillDir.empty() ? directoryOf(outputPath) : options_.spillDir;
  layout::ShardStore store(storeOptions);
  // Fills get their own store: the sizing pass appends fills while the
  // candidate-spool readers are open, and an append can trigger a
  // store-wide spill that invalidates open readers — so fills must never
  // share a budget pool with the spools being read.
  layout::ShardStore::Options fillStoreOptions = storeOptions;
  fillStoreOptions.memBudgetBytes =
      std::max<std::size_t>(budgetBytes / 8, 1u << 20);
  layout::ShardStore fillStore(fillStoreOptions);

  const auto nl = static_cast<std::size_t>(numLayers);
  const auto nr = static_cast<std::size_t>(rows);
  // Spools: pass-through wires per layer (output order), routed wires per
  // (layer, row) with minSpacing halos, then candidates/fills per layer.
  std::vector<layout::ShardStore::SpoolId> passWire(nl), candSpool(nl),
      fillSpool(nl);
  std::vector<std::vector<layout::ShardStore::SpoolId>> rowWire(
      nl, std::vector<layout::ShardStore::SpoolId>(nr));
  for (std::size_t l = 0; l < nl; ++l) {
    passWire[l] = store.createSpool();
    candSpool[l] = store.createSpool();
    fillSpool[l] = fillStore.createSpool();
    for (std::size_t j = 0; j < nr; ++j) rowWire[l][j] = store.createSpool();
  }

  // --- Ingest: stream + flatten + decompose + route into row spools ---
  Timer stage;
  {
    obs::ScopedSpan span("shard.ingest", "engine", {{"job", jid}});
    prof::ScopedTimer timer(prof::Stage::kRegionPrep);
    gds::FlattenStream flatten([&](const gds::Boundary& b) {
      const int l = b.layer - 1;
      if (l < 0 || l >= numLayers) return;
      if (b.datatype == 1) return;  // stale fills; run() clears them anyway
      for (const geom::Rect& r : geom::decompose(geom::Polygon(b.vertices))) {
        store.append(passWire[static_cast<std::size_t>(l)], r);
        ++rep.wireCount;
        // Route by the minSpacing-inflated extent: the halo rows see the
        // rect too, exactly as global bucketClipped(inflated) would.
        const geom::Rect e = r.expanded(eng.rules.minSpacing);
        if (e.empty()) continue;
        int i0, j0, i1, j1;
        grid.windowRange(e, i0, j0, i1, j1);
        for (int j = j0; j <= j1; ++j) {
          store.append(rowWire[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(j)],
                       r);
        }
      }
    });
    if (!scanFile(inputPath, flatten, error, options_.readerChunkBytes)) {
      return false;
    }
    if (!flatten.finish(error)) return false;
  }
  rep.ingestSeconds = stage.elapsedSeconds();
  checkCancel(eng.cancel);

  // Rebuilds one row's per-window wire and blocked buckets from its
  // spool, equal in content and order to the global bucketClipped results
  // restricted to row j (the spool preserves wire input order, and a
  // window's clips depend only on rects that touch it).
  std::vector<std::vector<geom::Rect>> wireBuckets(
      static_cast<std::size_t>(cols));
  std::vector<std::vector<geom::Rect>> blockedBuckets(
      static_cast<std::size_t>(cols));
  const auto buildRowBuckets = [&](std::size_t l, int j) {
    for (auto& b : wireBuckets) b.clear();
    for (auto& b : blockedBuckets) b.clear();
    store.forEach(rowWire[l][static_cast<std::size_t>(j)],
                  [&](const geom::Rect& r) {
      const geom::Rect e = r.expanded(eng.rules.minSpacing);
      if (!e.empty()) {
        int i0, j0, i1, j1;
        grid.windowRange(e, i0, j0, i1, j1);
        if (j0 <= j && j <= j1) {
          for (int i = i0; i <= i1; ++i) {
            const geom::Rect clip = e.intersection(grid.windowRect(i, j));
            if (!clip.empty()) {
              blockedBuckets[static_cast<std::size_t>(i)].push_back(clip);
            }
          }
        }
      }
      if (!r.empty()) {
        int i0, j0, i1, j1;
        grid.windowRange(r, i0, j0, i1, j1);
        if (j0 <= j && j <= j1) {
          for (int i = i0; i <= i1; ++i) {
            const geom::Rect clip = r.intersection(grid.windowRect(i, j));
            if (!clip.empty()) {
              wireBuckets[static_cast<std::size_t>(i)].push_back(clip);
            }
          }
        }
      }
    });
  };

  // --- Bounds pass: reduce each row to per-window scalars ---
  stage.reset();
  std::vector<std::vector<double>> wireDen(nl,
                                           std::vector<double>(numWindows));
  std::vector<density::DensityBounds> bounds(nl);
  for (auto& b : bounds) {
    b.lower.resize(numWindows);
    b.upper.resize(numWindows);
  }
  {
    obs::ScopedSpan span("shard.bounds", "engine", {{"job", jid}});
    for (std::size_t l = 0; l < nl; ++l) {
      for (int j = 0; j < rows; ++j) {
        checkCancel(eng.cancel);
        buildRowBuckets(l, j);
        pool.parallelFor(static_cast<std::size_t>(cols), [&](std::size_t i) {
          prof::ScopedTimer timer(prof::Stage::kPlanning);
          const auto w = static_cast<std::size_t>(
              grid.flatIndex(static_cast<int>(i), j));
          const geom::Rect windowRect = grid.windowRect(static_cast<int>(i), j);
          const geom::Area windowArea = windowRect.area();
          const double wires =
              density::windowDensity(wireBuckets[i], windowArea);
          const geom::Region region =
              layout::windowFillRegion(windowRect, blockedBuckets[i]);
          const density::WindowBound bound = density::computeWindowBound(
              wires, windowArea, region, eng.rules);
          wireDen[l][w] = wires;
          bounds[l].lower[w] = bound.lower;
          bounds[l].upper[w] = bound.upper;
        });
      }
    }
  }

  // --- Global target planning (stage 1) ---
  const TargetDensityPlanner planner(eng.plannerWeights);
  TargetPlan plan;
  {
    obs::ScopedSpan span("engine.planning", "engine", {{"job", jid}});
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    plan = planner.plan(bounds, cols, rows);
  }
  rep.fill.planningSeconds += stage.elapsedSeconds();

  // --- FFT global density + shard partition ---
  // The smoothed layer-average density is a layout-wide load model: row
  // bands with dense neighborhoods cost more in candidate generation and
  // sizing, so shard boundaries follow cumulative smoothed load (capped
  // by the byte budget). Partitioning never changes per-window results.
  stage.reset();
  std::vector<int> shardEnd;  // exclusive end row per shard
  {
    std::vector<double> avg(numWindows, 0.0);
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t w = 0; w < numWindows; ++w) avg[w] += wireDen[l][w];
    }
    for (double& v : avg) v /= static_cast<double>(numLayers);
    const density::DensityMap smoothed = density::FftDensity::smooth(
        density::DensityMap(cols, rows, std::move(avg)),
        options_.loadSigmaWindows);
    rep.fftSeconds = stage.elapsedSeconds();

    std::vector<double> rowLoad(nr, 0.0);
    std::vector<std::uint64_t> rowBytes(nr, 0);
    double totalLoad = 0.0;
    std::uint64_t totalBytes = 0;
    for (int j = 0; j < rows; ++j) {
      for (int i = 0; i < cols; ++i) {
        rowLoad[static_cast<std::size_t>(j)] += 0.05 + smoothed.at(i, j);
      }
      for (std::size_t l = 0; l < nl; ++l) {
        rowBytes[static_cast<std::size_t>(j)] +=
            store.count(rowWire[l][static_cast<std::size_t>(j)]) *
            sizeof(geom::Rect) * 4;  // buckets + blocked + regions overhead
      }
      totalLoad += rowLoad[static_cast<std::size_t>(j)];
      totalBytes += rowBytes[static_cast<std::size_t>(j)];
    }
    const std::uint64_t cap =
        std::max<std::uint64_t>(budgetBytes / 4, 1u << 20);
    if (options_.rowsPerShard > 0) {
      for (int j = options_.rowsPerShard; j < rows; j += options_.rowsPerShard) {
        shardEnd.push_back(j);
      }
      shardEnd.push_back(rows);
    } else {
      const int targetShards = std::max(
          1, std::min(rows, static_cast<int>((totalBytes + cap - 1) / cap)));
      const double loadPerShard = totalLoad / targetShards;
      double accLoad = 0.0;
      std::uint64_t accBytes = 0;
      for (int j = 0; j < rows; ++j) {
        accLoad += rowLoad[static_cast<std::size_t>(j)];
        accBytes += rowBytes[static_cast<std::size_t>(j)];
        if (j == rows - 1 || accBytes >= cap ||
            (targetShards > 1 && accLoad >= loadPerShard)) {
          shardEnd.push_back(j + 1);
          accLoad = 0.0;
          accBytes = 0;
        }
      }
    }
  }
  rep.shardCount = static_cast<int>(shardEnd.size());

  // --- Candidate pass (stage 2), shard by shard, row by row ---
  stage.reset();
  const CandidateGenerator generator(eng.rules, eng.candidate);
  prof::count(prof::Counter::kWindows, numWindows);
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("engine.windows").add(numWindows);
  }
  std::vector<std::vector<std::uint32_t>> candCounts(
      nl, std::vector<std::uint32_t>(numWindows, 0));
  {
    int startRow = 0;
    for (std::size_t s = 0; s < shardEnd.size(); ++s) {
      const int endRow = shardEnd[s];
      obs::ScopedSpan span(
          "shard.candidates", "engine",
          {{"job", jid}, {"shard", static_cast<double>(s)}});
      for (int j = startRow; j < endRow; ++j) {
        std::vector<WindowProblem> problems(static_cast<std::size_t>(cols));
        std::vector<std::vector<geom::Region>> rowRegions(
            nl, std::vector<geom::Region>(static_cast<std::size_t>(cols)));
        std::vector<std::vector<std::vector<geom::Rect>>> rowWires(
            nl), rowBlocked(nl);
        for (std::size_t l = 0; l < nl; ++l) {
          buildRowBuckets(l, j);
          rowWires[l] = wireBuckets;
          rowBlocked[l] = blockedBuckets;
          pool.parallelFor(static_cast<std::size_t>(cols), [&](std::size_t i) {
            prof::ScopedTimer timer(prof::Stage::kRegionPrep);
            rowRegions[l][i] = layout::windowFillRegion(
                grid.windowRect(static_cast<int>(i), j), rowBlocked[l][i]);
          });
        }
        pool.parallelFor(static_cast<std::size_t>(cols), [&](std::size_t i) {
          checkCancel(eng.cancel);
          const auto w = static_cast<std::size_t>(
              grid.flatIndex(static_cast<int>(i), j));
          WindowProblem& p = problems[i];
          p.window = grid.windowRect(static_cast<int>(i), j);
          p.fillRegions.reserve(nl);
          p.wires.reserve(nl);
          p.blocked.reserve(nl);
          for (std::size_t l = 0; l < nl; ++l) {
            p.fillRegions.push_back(rowRegions[l][i]);
            p.wires.push_back(rowWires[l][i]);
            p.blocked.push_back(rowBlocked[l][i]);
            p.wireDensity.push_back(wireDen[l][w]);
            p.targetDensity.push_back(plan.windowTarget[l][w]);
          }
          static thread_local CandidateGenerator::Scratch scratch;
          prof::ScopedTimer timer(prof::Stage::kCandidates);
          obs::ScopedSpan windowSpan(
              "window.candidates", "window",
              {{"job", jid}, {"w", static_cast<double>(w)}});
          generator.generate(p, scratch);
        });
        // Serial merge in window order: counts, stage-3 bound tightening,
        // and candidate spooling (flat window order across rows).
        for (int i = 0; i < cols; ++i) {
          const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
          const WindowProblem& p = problems[static_cast<std::size_t>(i)];
          const auto windowArea = static_cast<double>(p.window.area());
          for (std::size_t l = 0; l < nl; ++l) {
            const auto& fs = p.fills[l];
            rep.fill.candidateCount += fs.size();
            candCounts[l][w] = static_cast<std::uint32_t>(fs.size());
            geom::Area candidateArea = 0;
            for (const geom::Rect& f : fs) {
              candidateArea += f.area();
              store.append(candSpool[l], f);
            }
            const double reachable =
                windowArea > 0
                    ? p.wireDensity[l] +
                          static_cast<double>(candidateArea) / windowArea
                    : 0.0;
            auto& upper = bounds[l].upper;
            upper[w] = std::min(upper[w], reachable);
            upper[w] = std::max(upper[w], bounds[l].lower[w]);
          }
        }
      }
      startRow = endRow;
    }
  }
  rep.fill.candidateSeconds += stage.elapsedSeconds();
  checkCancel(eng.cancel);

  // --- Second planning round (stage 3) ---
  stage.reset();
  {
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    obs::ScopedSpan span("engine.replanning", "engine", {{"job", jid}});
    plan = planner.plan(bounds, cols, rows);
  }
  rep.fill.layerTargets = plan.layerTarget;
  rep.fill.planningSeconds += stage.elapsedSeconds();

  // --- Sizing pass (stage 4), shard by shard ---
  stage.reset();
  const FillSizer sizer(eng.rules, eng.sizer);
  const bool telemetry = obs::metricsEnabled() || obs::Tracer::enabled();
  std::vector<std::vector<double>> finalDensity(
      telemetry ? nl : 0, std::vector<double>(numWindows, 0.0));
  std::vector<layout::ShardStore::Reader> candReaders;
  candReaders.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    candReaders.push_back(store.read(candSpool[l]));
  }
  {
    int startRow = 0;
    for (std::size_t s = 0; s < shardEnd.size(); ++s) {
      const int endRow = shardEnd[s];
      obs::ScopedSpan span("shard.sizing", "engine",
                           {{"job", jid}, {"shard", static_cast<double>(s)}});
      for (int j = startRow; j < endRow; ++j) {
        checkCancel(eng.cancel);
        std::vector<WindowProblem> problems(static_cast<std::size_t>(cols));
        std::vector<FillSizer::Stats> windowStats(
            static_cast<std::size_t>(cols));
        std::vector<std::vector<std::vector<geom::Rect>>> rowWires(nl);
        for (std::size_t l = 0; l < nl; ++l) {
          buildRowBuckets(l, j);
          rowWires[l] = wireBuckets;
        }
        // Serial assembly: candidates stream out of the per-layer spools
        // in the same flat window order they were deposited.
        for (int i = 0; i < cols; ++i) {
          const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
          WindowProblem& p = problems[static_cast<std::size_t>(i)];
          p.window = grid.windowRect(i, j);
          p.fills.resize(nl);
          for (std::size_t l = 0; l < nl; ++l) {
            p.wires.push_back(rowWires[l][static_cast<std::size_t>(i)]);
            p.wireDensity.push_back(wireDen[l][w]);
            p.targetDensity.push_back(plan.windowTarget[l][w]);
            auto& fills = p.fills[l];
            fills.resize(candCounts[l][w]);
            for (std::uint32_t c = 0; c < candCounts[l][w]; ++c) {
              if (!candReaders[l].next(fills[c])) {
                return setError(error, "candidate spool underrun");
              }
            }
          }
        }
        pool.parallelFor(static_cast<std::size_t>(cols), [&](std::size_t i) {
          checkCancel(eng.cancel);
          const auto w = static_cast<std::size_t>(
              grid.flatIndex(static_cast<int>(i), j));
          static thread_local FillSizer::Scratch scratch;
          prof::ScopedTimer timer(prof::Stage::kSizing);
          obs::ScopedSpan windowSpan(
              "window.sizing", "window",
              {{"job", jid}, {"w", static_cast<double>(w)}});
          sizer.size(problems[i], scratch, &windowStats[i]);
        });
        for (int i = 0; i < cols; ++i) {
          const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
          const WindowProblem& p = problems[static_cast<std::size_t>(i)];
          rep.fill.sizerStats.add(windowStats[static_cast<std::size_t>(i)]);
          const auto windowArea = static_cast<double>(p.window.area());
          for (std::size_t l = 0; l < nl; ++l) {
            geom::Area fillArea = 0;
            for (const geom::Rect& f : p.fills[l]) {
              fillArea += f.area();
              fillStore.append(fillSpool[l], f);
            }
            rep.fill.fillCount += p.fills[l].size();
            if (telemetry) {
              finalDensity[l][w] =
                  windowArea > 0
                      ? p.wireDensity[l] +
                            static_cast<double>(fillArea) / windowArea
                      : 0.0;
            }
          }
        }
        for (std::size_t l = 0; l < nl; ++l) {
          store.release(rowWire[l][static_cast<std::size_t>(j)]);
        }
      }
      startRow = endRow;
    }
  }
  rep.fill.sizingSeconds += stage.elapsedSeconds();

  // --- Output: streaming writer, toGds order (wires then fills, per
  // layer, single TOP cell) ---
  {
    prof::ScopedTimer timer(prof::Stage::kOutput);
    obs::ScopedSpan span("shard.output", "engine", {{"job", jid}});
    gds::StreamWriter writer(outputPath);
    if (!writer.ok()) return setError(error, "cannot write " + outputPath);
    writer.beginCell("TOP");
    geom::Rect r;
    for (std::size_t l = 0; l < nl; ++l) {
      const auto gdsLayer = static_cast<std::int16_t>(l + 1);
      layout::ShardStore::Reader wires = store.read(passWire[l]);
      while (wires.next(r)) writer.addRect(gdsLayer, r, /*datatype=*/0);
      layout::ShardStore::Reader fills = fillStore.read(fillSpool[l]);
      while (fills.next(r)) writer.addRect(gdsLayer, r, /*datatype=*/1);
    }
    writer.endCell();
    rep.outputBytes = writer.finish();
    if (rep.outputBytes < 0) {
      return setError(error, "write failed: " + outputPath);
    }
  }
  if (store.ioError() || fillStore.ioError()) {
    return setError(error, "spool IO error");
  }
  rep.spilledBytes = store.spilledBytes() + fillStore.spilledBytes();
  rep.spillEvents = store.spillEvents() + fillStore.spillEvents();

  // --- Telemetry: same per-window/per-layer quality records as run() ---
  if (telemetry) {
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t w = 0; w < numWindows; ++w) {
        obs::recordWindowQuality(
            static_cast<int>(l) + 1, finalDensity[l][w],
            std::abs(finalDensity[l][w] - plan.windowTarget[l][w]));
      }
      const density::DensityMap map(cols, rows, finalDensity[l]);
      const density::DensityMetrics m = density::computeMetrics(map);
      obs::recordLayerQuality(static_cast<int>(l) + 1, m.mean, m.sigma,
                              m.lineHotspot, m.outlierHotspot, eng.jobId);
    }
  }
  rep.fill.totalSeconds = total.elapsedSeconds();
  rep.fill.profile = prof::Registry::instance().snapshot();
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.counter("engine.runs").add();
    reg.counter("engine.candidates").add(rep.fill.candidateCount);
    reg.counter("engine.fills").add(rep.fill.fillCount);
    reg.counter("engine.mcf_warm_starts")
        .add(static_cast<std::uint64_t>(rep.fill.sizerStats.warmStarts));
    reg.counter("engine.mcf_early_exits")
        .add(static_cast<std::uint64_t>(rep.fill.sizerStats.earlyExits));
    reg.counter("engine.eco_windows_skipped").add(rep.fill.ecoWindowsSkipped);
    reg.histogram("engine.run_seconds").observe(rep.fill.totalSeconds);
    reg.counter("scale.runs").add();
    reg.counter("scale.shards").add(static_cast<std::uint64_t>(rep.shardCount));
    reg.counter("scale.spill_bytes").add(rep.spilledBytes);
    reg.counter("scale.spill_events").add(rep.spillEvents);
    reg.gauge("scale.rows").set(static_cast<double>(rep.rows));
    reg.gauge("scale.mem_budget_mib")
        .set(static_cast<double>(options_.memBudgetMiB));
    reg.histogram("scale.ingest_seconds").observe(rep.ingestSeconds);
    reg.histogram("scale.fft_seconds").observe(rep.fftSeconds);
  }
  logInfo("ShardedEngine: %zu fills from %zu candidates in %.2fs "
          "(%d shards, %d rows, %.1f MiB spilled, %d threads)",
          rep.fill.fillCount, rep.fill.candidateCount, rep.fill.totalSeconds,
          rep.shardCount, rep.rows,
          static_cast<double>(rep.spilledBytes) / (1 << 20),
          rep.fill.threadsUsed);
  return true;
}

}  // namespace ofl::fill
