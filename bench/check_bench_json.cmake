# Validates BENCH_engine.json (written by bench_engine_perf) against the
# committed work-count baseline: the file must parse as JSON and contain
# at least one row, and every row's lock_decisions_per_run and
# dispatch_visits_per_run — exact counts that depend only on the inputs —
# must be at or below the baseline recorded for its (protocol, shape,
# horizon). A row above its baseline means the engine now does more
# locking or dispatch work for the same schedule; a row without a
# baseline means the bench grew a point nobody recorded.
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

set(counts lock_decisions_per_run dispatch_visits_per_run)

file(READ "${BASELINE}" base)
string(JSON nbase ERROR_VARIABLE err LENGTH "${base}" rows)
if(err)
  message(FATAL_ERROR "cannot parse ${BASELINE}: ${err}")
endif()
math(EXPR last "${nbase} - 1")
foreach(i RANGE ${last})
  string(JSON proto GET "${base}" rows ${i} protocol)
  string(JSON shape GET "${base}" rows ${i} shape)
  string(JSON horizon GET "${base}" rows ${i} horizon)
  foreach(count ${counts})
    string(JSON value GET "${base}" rows ${i} ${count})
    set("baseline_${proto}_${shape}_${horizon}_${count}" "${value}")
  endforeach()
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
  string(JSON shape ERROR_VARIABLE err GET "${doc}" rows ${i} shape)
  if(err)
    message(FATAL_ERROR "row ${i} (${proto}): no shape")
  endif()
  string(JSON horizon GET "${doc}" rows ${i} horizon)
  set(row "row ${i} (${proto}, ${shape}, horizon ${horizon})")
  foreach(count ${counts})
    string(JSON value ERROR_VARIABLE err GET "${doc}" rows ${i} ${count})
    if(err OR NOT value MATCHES "^[0-9]+$")
      message(FATAL_ERROR "${row}: no integer ${count}")
    endif()
    set(key "baseline_${proto}_${shape}_${horizon}_${count}")
    if(NOT DEFINED "${key}")
      message(FATAL_ERROR "${row}: no ${count} baseline in ${BASELINE}")
    endif()
    set(limit "${${key}}")
    if(value GREATER limit)
      message(FATAL_ERROR
          "${row}: ${count}=${value} is above the baseline ${limit}")
    endif()
    message(STATUS "${row}: ${count} ${value} <= baseline ${limit}")
  endforeach()
endforeach()
message(STATUS "${JSON}: ${nrows} row(s), all within the work baseline")
