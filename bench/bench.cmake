# Benchmark harness: one binary per paper table/figure plus ablations and a
# google-benchmark micro suite. Included from the top-level CMakeLists (not
# add_subdirectory) so that build/bench/ contains only the binaries —
# `for b in build/bench/*; do $b; done` must run clean.
set(VOLCAST_BENCH_OUTPUT_DIR ${CMAKE_BINARY_DIR}/bench)

function(volcast_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE volcast::volcast
                                        volcast_program_warnings)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src)
  # Bench binaries don't link volcast_warnings, so the host-tuning flag has
  # to be applied here for VOLCAST_NATIVE to cover the harness code too.
  if(VOLCAST_NATIVE)
    target_compile_options(${name} PRIVATE -march=native)
  endif()
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${VOLCAST_BENCH_OUTPUT_DIR})
endfunction()

volcast_add_bench(bench_table1)
volcast_add_bench(bench_fig2_viewport_similarity)
volcast_add_bench(bench_fig3b_default_codebook)
volcast_add_bench(bench_fig3d_custom_beams)
volcast_add_bench(bench_fig3e_multicast_throughput)
volcast_add_bench(bench_ablation_beam_tracking)
volcast_add_bench(bench_ablation_prediction)
volcast_add_bench(bench_ablation_grouping)
volcast_add_bench(bench_ablation_rate_adaptation)
volcast_add_bench(bench_system_scaling)
volcast_add_bench(bench_fleet)
volcast_add_bench(bench_tile_cache)
volcast_add_bench(bench_transport)
volcast_add_bench(bench_overload)

volcast_add_bench(bench_micro)
target_link_libraries(bench_micro PRIVATE benchmark::benchmark)
