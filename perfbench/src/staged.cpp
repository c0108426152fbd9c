#include "staged.hpp"

#include <algorithm>
#include <chrono>

#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "fill/candidate_generator.hpp"
#include "fill/fill_sizer.hpp"
#include "fill/target_planner.hpp"
#include "layout/fill_region.hpp"
#include "layout/window_grid.hpp"

namespace perfbench {

using ofl::fill::WindowProblem;

double StagedRun::totalSeconds() const {
  double sum = 0.0;
  for (const auto& stage : stages) sum += stage.second;
  return sum;
}

StagedRun runStaged(ofl::layout::Layout& chip,
                    const ofl::fill::FillEngineOptions& options,
                    ofl::ThreadPool& pool, int round) {
  StagedRun run;
  auto stage = [&](const char* name, auto&& body) {
    Span span(name, round);
    body();
    run.stages.emplace_back(name, span.end());
  };

  chip.clearFills();
  const auto numLayers = static_cast<std::size_t>(chip.numLayers());
  const ofl::layout::WindowGrid grid(chip.die(), options.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());

  std::vector<std::vector<ofl::geom::Region>> fillRegions(numLayers);
  std::vector<std::vector<std::vector<ofl::geom::Rect>>> blocked(numLayers);
  std::vector<std::vector<std::vector<ofl::geom::Rect>>> wireBuckets(numLayers);
  stage("layout.region_prep", [&] {
    pool.parallelFor(numLayers, [&](std::size_t l) {
      const int layer = static_cast<int>(l);
      fillRegions[l] = ofl::layout::computeFillRegions(
          chip, layer, grid, options.rules, &blocked[l]);
      wireBuckets[l] = grid.bucketClipped(chip.layer(layer).wires);
    });
  });

  std::vector<ofl::density::DensityMap> wireDensity(numLayers);
  stage("density.wire_map", [&] {
    pool.parallelFor(numLayers, [&](std::size_t l) {
      wireDensity[l] = ofl::density::DensityMap::computeFromShapes(
          chip.layer(static_cast<int>(l)).wires, grid);
    });
  });

  std::vector<ofl::density::DensityBounds> bounds(numLayers);
  stage("density.bounds", [&] {
    pool.parallelFor(numLayers, [&](std::size_t l) {
      bounds[l] = ofl::density::computeBounds(chip, static_cast<int>(l), grid,
                                              fillRegions[l], options.rules);
    });
  });

  const ofl::fill::TargetDensityPlanner planner(options.plannerWeights);
  ofl::fill::TargetPlan plan;
  stage("fill.plan",
        [&] { plan = planner.plan(bounds, grid.cols(), grid.rows()); });

  std::vector<WindowProblem> problems(numWindows);
  const ofl::fill::CandidateGenerator generator(options.rules,
                                                options.candidate);
  stage("fill.candidates", [&] {
    pool.parallelFor(numWindows, [&](std::size_t w) {
      const int i = static_cast<int>(w) % grid.cols();
      const int j = static_cast<int>(w) / grid.cols();
      WindowProblem& p = problems[w];
      p.window = grid.windowRect(i, j);
      for (std::size_t l = 0; l < numLayers; ++l) {
        p.fillRegions.push_back(fillRegions[l][w]);
        p.wires.push_back(wireBuckets[l][w]);
        p.blocked.push_back(blocked[l][w]);
        p.wireDensity.push_back(wireDensity[l].at(i, j));
        p.targetDensity.push_back(plan.windowTarget[l][w]);
      }
      static thread_local ofl::fill::CandidateGenerator::Scratch scratch;
      generator.generate(p, scratch);
    });
  });
  for (const WindowProblem& p : problems) {
    for (const auto& layerFills : p.fills) run.candidates += layerFills.size();
  }

  // Second planning round: cap each window's upper bound at the density
  // its candidates can reach, then re-plan (FillEngine::run stage 3).
  stage("fill.replan", [&] {
    for (std::size_t l = 0; l < numLayers; ++l) {
      auto& upper = bounds[l].upper;
      for (std::size_t w = 0; w < numWindows; ++w) {
        const WindowProblem& p = problems[w];
        ofl::geom::Area candidateArea = 0;
        for (const ofl::geom::Rect& f : p.fills[l]) candidateArea += f.area();
        const auto windowArea = static_cast<double>(p.window.area());
        const double reachable =
            windowArea > 0 ? p.wireDensity[l] +
                                 static_cast<double>(candidateArea) / windowArea
                           : 0.0;
        upper[w] = std::min(upper[w], reachable);
        upper[w] = std::max(upper[w], bounds[l].lower[w]);
      }
    }
    plan = planner.plan(bounds, grid.cols(), grid.rows());
    for (std::size_t w = 0; w < numWindows; ++w) {
      for (std::size_t l = 0; l < numLayers; ++l) {
        problems[w].targetDensity[l] = plan.windowTarget[l][w];
      }
    }
  });

  const ofl::fill::FillSizer sizer(options.rules, options.sizer);
  std::vector<ofl::fill::FillSizer::Stats> windowStats(numWindows);
  run.sizingWindowSeconds.assign(numWindows, 0.0);
  stage("fill.sizing", [&] {
    pool.parallelFor(numWindows, [&](std::size_t w) {
      static thread_local ofl::fill::FillSizer::Scratch scratch;
      const auto start = std::chrono::steady_clock::now();
      sizer.size(problems[w], scratch, &windowStats[w]);
      run.sizingWindowSeconds[w] = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start).count();
    });
  });
  for (const auto& s : windowStats) run.sizer.add(s);

  stage("fill.output", [&] {
    for (const WindowProblem& p : problems) {
      for (std::size_t l = 0; l < numLayers; ++l) {
        auto& out = chip.layer(static_cast<int>(l)).fills;
        out.insert(out.end(), p.fills[l].begin(), p.fills[l].end());
      }
    }
  });
  return run;
}

}  // namespace perfbench
