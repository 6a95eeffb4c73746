/// \file custom_workflow.cpp
/// \brief Shows the workflow-authoring side of the API: build a DAG by hand
/// (a small genomics-style pipeline), serialize it to JSON and Graphviz,
/// reload it, define a custom platform, schedule and execute it, and export
/// per-task/per-VM execution traces as CSV.
///
/// Usage: custom_workflow [output_dir=.]

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/rng.hpp"
#include "dag/io.hpp"
#include "dag/stochastic.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {

/// A variant-calling-style pipeline: alignment fan-out per chromosome batch,
/// merge, joint calling, per-sample annotation, final report.
cloudwf::dag::Workflow build_pipeline() {
  using namespace cloudwf;
  dag::Workflow wf("variant-calling");

  constexpr std::size_t batches = 6;
  constexpr std::size_t samples = 4;
  const auto merge = wf.add_task("merge_bams", 4e3, 1e3, "MergeSam");
  for (std::size_t b = 0; b < batches; ++b) {
    // Alignment time varies strongly with read content: sigma = 60% of mu.
    const auto align = wf.add_task("align_" + std::to_string(b), 9e3, 5.4e3, "BWA");
    wf.add_external_input(align, 2.5e9 / batches);  // FASTQ chunk
    wf.add_edge(align, merge, 800e6);               // sorted BAM
  }
  const auto call = wf.add_task("joint_call", 2e4, 5e3, "GATK");
  wf.add_edge(merge, call, 3e9);
  const auto report = wf.add_task("report", 1.5e3, 150, "MultiQC");
  for (std::size_t s = 0; s < samples; ++s) {
    const auto annotate = wf.add_task("annotate_" + std::to_string(s), 3e3, 900, "VEP");
    wf.add_edge(call, annotate, 120e6);
    wf.add_edge(annotate, report, 30e6);
  }
  wf.add_external_output(report, 50e6);
  wf.freeze();
  return wf;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cloudwf;
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : ".";

  // 1. Author a workflow and round-trip it through the JSON interchange.
  const dag::Workflow authored = build_pipeline();
  const auto json_path = (out_dir / "variant_calling.json").string();
  dag::save_json(authored, json_path);
  const dag::Workflow wf = dag::load_json(json_path);
  std::cout << "wrote " << json_path << " and reloaded it (" << wf.task_count() << " tasks, "
            << wf.edge_count() << " edges)\n";

  // 2. Export the DAG for Graphviz.
  {
    std::ofstream dot(out_dir / "variant_calling.dot");
    dot << dag::to_dot(wf);
    std::cout << "wrote " << (out_dir / "variant_calling.dot").string()
              << "  (render with: dot -Tpdf)\n";
  }

  // 3. A custom platform: a provider with non-proportional pricing (the
  //    large node is a worse deal per instruction).
  const platform::Platform cloud =
      platform::PlatformBuilder("custom-provider")
          .add_category({"c5.large", 1.0, units::per_hour(0.085), 0.0, 1})
          .add_category({"c5.2xlarge", 3.8, units::per_hour(0.34), 0.0, 1})
          .add_category({"c5.metal", 12.0, units::per_hour(4.08), 0.0, 2})
          .boot_delay(45.0)
          .bandwidth(250.0 * units::MB)
          .dc_storage_price_per_gb_month(0.023)
          .dc_transfer_price_per_gb(0.09)
          .build();

  // 4. Schedule under a budget and execute one realization.
  const Dollars budget = 5.0;
  const auto out =
      sched::make_scheduler("heft-budg-plus")->schedule(sched::make_input(wf, cloud, budget));
  std::cout << "\nheft-budg-plus under $" << budget << ": predicted makespan "
            << out.predicted_makespan << " s, predicted cost $" << out.predicted_cost << "\n";

  Rng rng(7);
  const sim::SimResult run =
      sim::Simulator(wf, cloud).run(out.schedule, dag::sample_weights(wf, rng));
  std::cout << sim::result_summary_text(run) << '\n';

  // 5. Export execution traces.
  {
    std::ofstream tasks(out_dir / "trace_tasks.csv");
    sim::write_task_trace_csv(wf, run, tasks);
    std::ofstream vms(out_dir / "trace_vms.csv");
    sim::write_vm_trace_csv(run, vms);
    std::ofstream summary(out_dir / "run_summary.json");
    summary << sim::result_summary_json(run) << '\n';
  }
  std::cout << "wrote trace_tasks.csv, trace_vms.csv, run_summary.json to " << out_dir.string()
            << '\n';
  return EXIT_SUCCESS;
} catch (const std::exception& error) {
  std::cerr << "custom_workflow failed: " << error.what() << '\n';
  return EXIT_FAILURE;
}
