# Benchmark / figure-reproduction binaries. Declared from the top level so
# ${CMAKE_BINARY_DIR}/bench contains only the binaries and the canonical
# runner `for b in build/bench/*; do $b; done` works cleanly.

add_library(scd_bench_support STATIC
  ${CMAKE_SOURCE_DIR}/bench/support/bench_util.cpp
  ${CMAKE_SOURCE_DIR}/bench/support/experiments.cpp
)
target_include_directories(scd_bench_support PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(scd_bench_support PUBLIC
  scd_ingest scd_core scd_eval scd_gridsearch scd_detect scd_perflow
  scd_forecast scd_sketch scd_hash scd_traffic scd_common)

function(scd_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE scd_bench_support benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

scd_add_bench(bench_table1_opcost)
scd_add_bench(bench_kernel_throughput)
scd_add_bench(bench_fig01_relative_difference_cdf)
scd_add_bench(bench_fig02_vary_h)
scd_add_bench(bench_fig03_vary_k)
scd_add_bench(bench_gridsearch_vs_random)
scd_add_bench(bench_fig04_similarity_over_time)
scd_add_bench(bench_fig05_similarity_vs_k)
scd_add_bench(bench_fig06_topxn)
scd_add_bench(bench_fig07_vary_h_topn)
scd_add_bench(bench_fig08_medium_router)
scd_add_bench(bench_fig09_arima_similarity)
scd_add_bench(bench_fig10_threshold_60s)
scd_add_bench(bench_fig11_threshold_300s)
scd_add_bench(bench_fig12_fn_ewma_nshw)
scd_add_bench(bench_fig13_fn_arima)
scd_add_bench(bench_fig14_fp_ewma_nshw)
scd_add_bench(bench_fig15_fp_arima)
scd_add_bench(bench_appendix_estimator_quality)
scd_add_bench(bench_ablation_aggregate_vs_sketch)
scd_add_bench(bench_ablation_hash)
scd_add_bench(bench_ablation_interval_size)
scd_add_bench(bench_ablation_heavy_hitters)
scd_add_bench(bench_ablation_median)
scd_add_bench(bench_ablation_sketch_type)
scd_add_bench(bench_ext_factorial_design)
scd_add_bench(bench_ext_key_recovery)
scd_add_bench(bench_ext_seasonal_model)
scd_add_bench(bench_ext_online_detection)
scd_add_bench(bench_ext_packet_stream)
scd_add_bench(bench_ext_roc)
scd_add_bench(bench_ext_scan_detection)
scd_add_bench(bench_obs_overhead)
scd_add_bench(bench_parallel_ingest)

# The paper-figure gate (ctest label `repro`): each figure bench and the
# estimator-quality appendix runs as a test that fails on a non-zero exit or
# on any "CHECK ...: FAIL" line. They share one trace/parameter cache inside
# the build tree, written atomically, so `ctest -j` may race on filling it.
set(SCD_REPRO_BENCHES
  bench_fig01_relative_difference_cdf
  bench_fig02_vary_h
  bench_fig03_vary_k
  bench_fig04_similarity_over_time
  bench_fig05_similarity_vs_k
  bench_fig06_topxn
  bench_fig07_vary_h_topn
  bench_fig08_medium_router
  bench_fig09_arima_similarity
  bench_fig10_threshold_60s
  bench_fig11_threshold_300s
  bench_fig12_fn_ewma_nshw
  bench_fig13_fn_arima
  bench_fig14_fp_ewma_nshw
  bench_fig15_fp_arima
  bench_appendix_estimator_quality
)
foreach(bench IN LISTS SCD_REPRO_BENCHES)
  add_test(NAME repro.${bench} COMMAND ${bench})
  set_tests_properties(repro.${bench} PROPERTIES
    LABELS repro
    ENVIRONMENT "SCD_TRACE_DIR=${CMAKE_BINARY_DIR}/repro_traces"
    FAIL_REGULAR_EXPRESSION "CHECK [^\n]*: FAIL"
    TIMEOUT 900)
endforeach()

# The compiled-out overhead baseline: rebuild the core pipeline translation
# units with SCD_OBS_ENABLED=0 so instrumentation vanishes from the binary,
# then link the bench against that library INSTEAD of scd_core (linking both
# would collide on the pipeline symbols, so no scd_bench_support either).
add_library(scd_core_noobs STATIC
  ${CMAKE_SOURCE_DIR}/src/core/multi_resolution.cpp
  ${CMAKE_SOURCE_DIR}/src/core/pipeline.cpp
)
target_compile_definitions(scd_core_noobs PRIVATE SCD_OBS_ENABLED=0)
target_link_libraries(scd_core_noobs PUBLIC
  scd_detect scd_forecast scd_gridsearch scd_sketch scd_traffic scd_obs
  scd_common)

add_executable(bench_obs_overhead_compiledout
  ${CMAKE_SOURCE_DIR}/bench/bench_obs_overhead_compiledout.cpp)
# The bench TU itself also compiles with obs off so its static_assert can
# prove the span macros followed SCD_OBS_ENABLED out of the build.
target_compile_definitions(bench_obs_overhead_compiledout
  PRIVATE SCD_OBS_ENABLED=0)
target_link_libraries(bench_obs_overhead_compiledout PRIVATE scd_core_noobs)
set_target_properties(bench_obs_overhead_compiledout PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
