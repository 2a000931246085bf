# The bench_sim_pin test: runs bench_runtime in a scratch directory and
# compares every simulated block of the BENCH_runtime.json it writes,
# field by field, against the committed one. The SimulatedClock makes
# those numbers exact, so any drift is a behaviour change. The one
# real-clock field, dictionary.encoded_wall_us, is skipped.
#
#   cmake -DBENCH=<bench_runtime> -DGOLDEN=<BENCH_runtime.json>
#         -DWORKDIR=<scratch dir> -P sim_pin.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(blocks fanout shared_cache dictionary pipeline operator_dag cost_model
    daemon_warm_start)

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BENCH}" --benchmark_min_time=0.01
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_runtime exited with ${rc}:\n${output}")
endif()
file(READ "${WORKDIR}/BENCH_runtime.json" actual)
file(READ "${GOLDEN}" expected)
string(JSON actual REMOVE "${actual}" dictionary encoded_wall_us)
string(JSON expected REMOVE "${expected}" dictionary encoded_wall_us)

# Reports every leaf of `expected` (a value of JSON type `type`, as
# string(JSON GET) returns it) under `path` that `actual` lacks or holds
# differently; bumps the caller's `mismatches`.
function(compare path type actual expected)
  if(NOT (type STREQUAL "OBJECT" OR type STREQUAL "ARRAY"))
    if(NOT actual STREQUAL expected)
      message(SEND_ERROR "${path}: ${actual} != committed ${expected}")
      math(EXPR mismatches "${mismatches} + 1")
    endif()
    set(mismatches ${mismatches} PARENT_SCOPE)
    return()
  endif()
  string(JSON same EQUAL "${actual}" "${expected}")
  if(same)
    return()
  endif()
  string(JSON n LENGTH "${expected}")
  string(JSON actual_n LENGTH "${actual}")
  if(NOT n EQUAL actual_n)
    message(SEND_ERROR "${path}: ${actual_n} entries, committed ${n}")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      if(type STREQUAL "OBJECT")
        string(JSON key MEMBER "${expected}" ${i})
        set(child "${path}.${key}")
      else()
        set(key ${i})
        set(child "${path}[${i}]")
      endif()
      string(JSON want_type TYPE "${expected}" ${key})
      string(JSON got_type ERROR_VARIABLE missing TYPE "${actual}" ${key})
      if(missing OR NOT got_type STREQUAL want_type)
        message(SEND_ERROR "${child}: missing or not a ${want_type}")
        math(EXPR mismatches "${mismatches} + 1")
      else()
        string(JSON want GET "${expected}" ${key})
        string(JSON got GET "${actual}" ${key})
        compare("${child}" ${want_type} "${got}" "${want}")
      endif()
    endforeach()
  endif()
  set(mismatches ${mismatches} PARENT_SCOPE)
endfunction()

set(mismatches 0)
foreach(block IN LISTS blocks)
  string(JSON want GET "${expected}" ${block})
  string(JSON got ERROR_VARIABLE missing GET "${actual}" ${block})
  if(missing)
    message(SEND_ERROR "${block}: block missing")
    math(EXPR mismatches "${mismatches} + 1")
  else()
    compare("${block}" OBJECT "${got}" "${want}")
  endif()
endforeach()
if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} simulated BENCH_runtime.json field(s) "
                      "differ from the committed file")
endif()
message(STATUS "every simulated BENCH_runtime.json field matches")
