# Validates BENCH_engine.json (written by bench_engine_perf) against the
# committed decision-count baseline: the file must parse as JSON and
# contain at least one row, and every row's lock_decisions_per_run — an
# exact count that depends only on the inputs — must be at or below the
# baseline recorded for its (protocol, horizon). A row above its baseline
# means the engine now does more locking work for the same schedule; a
# row without a baseline means the bench grew a point nobody recorded.
#
# Usage: cmake -DJSON=<BENCH_engine.json> -DBASELINE=<baseline.json>
#              -P check_bench_json.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var JSON BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<path>")
  endif()
  if(NOT EXISTS "${${var}}")
    message(FATAL_ERROR "missing ${${var}} (run bench_engine_perf first)")
  endif()
endforeach()

file(READ "${BASELINE}" base)
string(JSON nbase ERROR_VARIABLE err LENGTH "${base}" rows)
if(err)
  message(FATAL_ERROR "cannot parse ${BASELINE}: ${err}")
endif()
math(EXPR last "${nbase} - 1")
foreach(i RANGE ${last})
  string(JSON proto GET "${base}" rows ${i} protocol)
  string(JSON horizon GET "${base}" rows ${i} horizon)
  string(JSON decisions GET "${base}" rows ${i} lock_decisions_per_run)
  set("baseline_${proto}_${horizon}" "${decisions}")
endforeach()

file(READ "${JSON}" doc)
string(JSON nrows ERROR_VARIABLE err LENGTH "${doc}" rows)
if(err)
  message(FATAL_ERROR "cannot parse ${JSON}: ${err}")
endif()
if(nrows LESS 1)
  message(FATAL_ERROR "${JSON} has no rows")
endif()

math(EXPR last "${nrows} - 1")
foreach(i RANGE ${last})
  string(JSON proto GET "${doc}" rows ${i} protocol)
  string(JSON horizon GET "${doc}" rows ${i} horizon)
  string(JSON decisions ERROR_VARIABLE err
         GET "${doc}" rows ${i} lock_decisions_per_run)
  if(err OR NOT decisions MATCHES "^[0-9]+$")
    message(FATAL_ERROR
        "row ${i} (${proto}, horizon ${horizon}): no integer "
        "lock_decisions_per_run")
  endif()
  if(NOT DEFINED "baseline_${proto}_${horizon}")
    message(FATAL_ERROR
        "row ${i} (${proto}, horizon ${horizon}): no baseline in "
        "${BASELINE}")
  endif()
  set(limit "${baseline_${proto}_${horizon}}")
  if(decisions GREATER limit)
    message(FATAL_ERROR
        "row ${i} (${proto}, horizon ${horizon}): "
        "lock_decisions_per_run=${decisions} is above the baseline "
        "${limit}")
  endif()
  message(STATUS
      "row ${i}: ${proto} horizon ${horizon} decisions ${decisions} "
      "<= baseline ${limit}")
endforeach()
message(STATUS "${JSON}: ${nrows} row(s), all within the decision baseline")
