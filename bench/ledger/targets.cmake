# Stage-ledger target, injected into the volcast project without editing
# CMakeLists.txt or bench/bench.cmake:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_volcast_INCLUDE=$PWD/bench/ledger/targets.cmake
#
# The hook runs right after project(), before src/ is added and before the
# top-level file sets the C++ standard or declares VOLCAST_NATIVE, so the
# target is added by a call deferred to the end of the top-level file.
set(VOLCAST_LEDGER_DIR ${CMAKE_CURRENT_LIST_DIR})

function(volcast_ledger_add_target)
  add_executable(volcast_ledger ${VOLCAST_LEDGER_DIR}/ledger.cpp)
  target_link_libraries(volcast_ledger PRIVATE volcast::volcast)
  target_include_directories(volcast_ledger PRIVATE ${CMAKE_SOURCE_DIR}/src)
  target_compile_features(volcast_ledger PRIVATE cxx_std_20)
  if(VOLCAST_NATIVE)
    target_compile_options(volcast_ledger PRIVATE -march=native)
  endif()
  # Host context the ledger stamps into every result (and checks: it
  # refuses to emit numbers from a non-Release build).
  string(TOUPPER "${CMAKE_BUILD_TYPE}" build_type_upper)
  string(STRIP "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${build_type_upper}}"
         cxx_flags)
  if(VOLCAST_NATIVE)
    set(native ON)
  else()
    set(native OFF)
  endif()
  target_compile_definitions(volcast_ledger PRIVATE
    VOLCAST_LEDGER_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    VOLCAST_LEDGER_CXX_FLAGS="${cxx_flags}"
    VOLCAST_LEDGER_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    VOLCAST_LEDGER_NATIVE="${native}")
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL volcast_ledger_add_target)
