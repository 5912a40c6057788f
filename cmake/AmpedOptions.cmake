# Build options and global compile settings for the AMPED reproduction.
#
# Everything funnels into the amped_options / amped_warnings interface
# targets, which every AMPED target links against. Keep policy here so the
# per-directory CMakeLists stay declarative.

option(AMPED_BUILD_TESTS "Build the GoogleTest suites in tests/" ON)
option(AMPED_BUILD_BENCH "Build the paper-figure benchmark binaries in bench/" ON)
option(AMPED_BUILD_EXAMPLES "Build the example programs in examples/" ON)
option(AMPED_WERROR "Treat compiler warnings as errors" OFF)
option(AMPED_SANITIZE "Build with AddressSanitizer + UBSan" OFF)
option(AMPED_TSAN "Build with ThreadSanitizer (mutually exclusive with AMPED_SANITIZE)" OFF)
option(AMPED_COVERAGE "Build with gcov instrumentation (--coverage) for line-rate reports" OFF)
option(AMPED_ENABLE_OPENMP "Link OpenMP if available (used by util/thread_pool consumers)" OFF)
option(AMPED_NATIVE_ARCH "Compile for the host CPU (-march=native); the EC kernel's hadamard/accumulate loops vectorise substantially wider with AVX2+" ON)

# Default to an optimized build: this repo exists to measure things.
if(NOT CMAKE_BUILD_TYPE AND NOT CMAKE_CONFIGURATION_TYPES)
  set(CMAKE_BUILD_TYPE Release CACHE STRING "Build type" FORCE)
  set_property(CACHE CMAKE_BUILD_TYPE PROPERTY STRINGS Release Debug RelWithDebInfo MinSizeRel)
endif()

set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)

# amped_options: language level, threads, sanitizers, OpenMP.
add_library(amped_options INTERFACE)
target_compile_features(amped_options INTERFACE cxx_std_20)

find_package(Threads REQUIRED)
target_link_libraries(amped_options INTERFACE Threads::Threads)

if(AMPED_SANITIZE AND AMPED_TSAN)
  message(FATAL_ERROR "AMPED_SANITIZE (ASan+UBSan) and AMPED_TSAN cannot be combined: the runtimes conflict. Pick one.")
endif()

if(AMPED_SANITIZE)
  # Global, not per-target: FetchContent-built GoogleTest/Benchmark must be
  # instrumented too, or ASan false-positives on containers crossing the
  # instrumented/uninstrumented boundary.
  add_compile_options(-fsanitize=address,undefined
    -fno-sanitize-recover=undefined -fno-omit-frame-pointer)
  add_link_options(-fsanitize=address,undefined
    -fno-sanitize-recover=undefined)
endif()

if(AMPED_TSAN)
  # Global for the same reason as ASan: GoogleTest must carry the TSan
  # runtime too, or its synchronisation looks like races to the tool.
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
endif()

if(AMPED_COVERAGE)
  # Global so the test binaries' own TUs are counted too. Atomic profile
  # updates: the host backend and thread pool run instrumented code on
  # many threads, and non-atomic counters lose ticks (and trip TSan).
  add_compile_options(--coverage -fprofile-update=atomic)
  add_link_options(--coverage)
endif()

# No floating-point contraction. GCC contracts a*b+c into one FMA by default
# in C++ (even with extensions off) wherever the target has FMA, so a
# -march=native Release build, a portable build and an -O0 build would
# round simulated times and factors differently in the last bit. Off, every
# preset computes the same bits and exact goldens hold in each of them.
if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(amped_options INTERFACE -ffp-contract=off)
endif()

if(AMPED_NATIVE_ARCH AND CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  include(CheckCXXCompilerFlag)
  check_cxx_compiler_flag(-march=native AMPED_HAS_MARCH_NATIVE)
  if(AMPED_HAS_MARCH_NATIVE)
    target_compile_options(amped_options INTERFACE -march=native)
  else()
    message(STATUS "AMPED_NATIVE_ARCH=ON but -march=native is unsupported; continuing without it")
  endif()
endif()

if(AMPED_ENABLE_OPENMP)
  find_package(OpenMP)
  if(OpenMP_CXX_FOUND)
    target_link_libraries(amped_options INTERFACE OpenMP::OpenMP_CXX)
  else()
    message(WARNING "AMPED_ENABLE_OPENMP=ON but no OpenMP runtime was found; continuing without it")
  endif()
endif()

# amped_warnings: kept separate from amped_options so third-party code
# (GoogleTest) never inherits our warning set.
add_library(amped_warnings INTERFACE)
if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(amped_warnings INTERFACE
    -Wall -Wextra -Wpedantic -Wshadow -Wnon-virtual-dtor)
  if(AMPED_WERROR)
    target_compile_options(amped_warnings INTERFACE -Werror)
  endif()
elseif(MSVC)
  target_compile_options(amped_warnings INTERFACE /W4)
  if(AMPED_WERROR)
    target_compile_options(amped_warnings INTERFACE /WX)
  endif()
endif()
