# Build file of the bench_e2e program, loaded as a project-include hook:
#
#   cmake -S <checkout> -B <build> -DCMAKE_PROJECT_INCLUDE=<this file>
#
# (run.py does this). The library's CMake lists locate headers through
# CMAKE_SOURCE_DIR, so bench_e2e cannot configure the repository as a
# subproject of a project of its own; instead CMake includes this file
# at the end of the root project() call, and the deferred call below
# adds bench_e2e once the root list file has defined every library
# target it links against.
set(SWH_BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(swh_add_bench_e2e)
  add_executable(bench_e2e
    ${SWH_BENCH_E2E_DIR}/main.cpp
    ${SWH_BENCH_E2E_DIR}/pipeline.cpp
    ${SWH_BENCH_E2E_DIR}/workloads.cpp
    ${SWH_BENCH_E2E_DIR}/check.cpp
  )
  target_link_libraries(bench_e2e PRIVATE swhybrid Threads::Threads)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL swh_add_bench_e2e)
