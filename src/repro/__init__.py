"""repro — reproduction of "A Dual-Store Structure for Knowledge Graphs".

The package implements the paper's dual-store structure (a relational master
store plus a native-graph accelerator), its reinforcement-learning physical
design tuner DOTIL, the query processor that spans both stores, and every
substrate the evaluation needs: an RDF data model, a SPARQL subset, a
work-accounted relational engine, an adjacency-list graph engine, a
deterministic cost model, and synthetic YAGO/WatDiv/Bio2RDF-like datasets and
workloads.  On top of that sits :mod:`repro.serve`: a caching, batching
:class:`~repro.serve.QueryService` for serving whole workloads.

Quickstart
----------
Build a dual store, front it with a :class:`QueryService`, and serve a
workload batch; serving the same batch again is answered from the result
cache (one :class:`QueryRecord` per submitted query either way):

>>> from repro import DualStore, QueryService, generate_yago, yago_workload
>>> dataset = generate_yago(target_triples=2000)
>>> dual = DualStore().load(dataset.triples)
>>> workload = yago_workload(dataset)
>>> batch = workload.batches("ordered")[0]
>>> service = QueryService(dual)
>>> first = service.run_batch(batch)
>>> len(first.records) == len(batch)
True
>>> second = service.run_batch(batch)
>>> second.cache_hits == len(batch)
True
>>> second.tti == first.tti  # cached records keep the modelled seconds
True

A cached answer keeps the read stamp of what its query read and hits only
while the stamp stands.  A write to a predicate the batch does not read
leaves every answer cached; a write to one it reads re-executes the queries
over it:

>>> from repro import IRI, Triple
>>> def fact(name):
...     predicate = IRI("http://yago-knowledge.org/resource/" + name)
...     return Triple(IRI("urn:example:ada"), predicate, IRI("urn:example:bob"))
>>> service.insert([fact("isMarriedTo")]) >= 0.0
True
>>> service.run_batch(batch).cache_hits == len(batch)
True
>>> service.insert([fact("wasBornIn")]) >= 0.0
True
>>> service.run_batch(batch).cache_hits < len(batch)
True
>>> service.close()  # a closed service refuses to serve

The uncached path of the paper's experiments is ``dual.run_query``; DOTIL
(:class:`Dotil`) tunes the physical design underneath either path.
"""

from repro.analysis import LockGraph, LockOrderError
from repro.core import (
    DEFAULT_CONFIG,
    PAPER_TUNED_CONFIG,
    BaseTuner,
    BatchResult,
    ComplexSubquery,
    ComplexSubqueryIdentifier,
    Dotil,
    DotilConfig,
    DualStore,
    DualStoreDesign,
    IdealTuner,
    LRUTuner,
    MoveReceipt,
    OneOffTuner,
    QueryProcessor,
    QueryRecord,
    RDBGDB,
    RDBOnly,
    RDBViews,
    StaticTuner,
    StoreVariant,
    TuningReport,
    WorkloadResult,
    improvement_percent,
    run_workload,
    run_workload_repeated,
)
from repro.cost import CostModel, DEFAULT_COST_MODEL, ResourceThrottle, WorkCounters
from repro.endpoint import (
    EndpointConfig,
    EndpointPool,
    SparqlEndpoint,
    WorkerSupervisor,
    sparql_request,
)
from repro.graphstore import GraphStore
from repro.persist import (
    DeltaLog,
    SnapshotManifest,
    SnapshotPolicy,
    SnapshotWatcher,
    WalTailer,
    load_snapshot,
    read_manifest,
    restore_with_log,
)
from repro.rdf import IRI, Literal, TripleSet, Triple, Variable
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    FleetMonitor,
    KillSpec,
    MonitorPolicy,
    deadline_scope,
)
from repro.relstore import (
    RelationalStore,
    ShardedRelationalStore,
    ShardingConfig,
)
from repro.serve import (
    AdaptiveConfig,
    QueryService,
    ServedBatch,
    ServiceConfig,
    ServiceMetrics,
    TuningDaemon,
    WorkloadWindow,
)
from repro.sparql import SelectQuery, TriplePattern, canonical_query_text, parse_query
from repro.workload import (
    Workload,
    bio2rdf_workload,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    watdiv_workload,
    yago_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "LockGraph",
    "LockOrderError",
    # core
    "DualStore",
    "MoveReceipt",
    "Dotil",
    "DotilConfig",
    "DEFAULT_CONFIG",
    "PAPER_TUNED_CONFIG",
    "ComplexSubquery",
    "ComplexSubqueryIdentifier",
    "DualStoreDesign",
    "QueryProcessor",
    "BaseTuner",
    "OneOffTuner",
    "LRUTuner",
    "IdealTuner",
    "StaticTuner",
    "TuningReport",
    "StoreVariant",
    "RDBOnly",
    "RDBViews",
    "RDBGDB",
    "QueryRecord",
    "BatchResult",
    "WorkloadResult",
    "improvement_percent",
    "run_workload",
    "run_workload_repeated",
    # stores
    "RelationalStore",
    "ShardedRelationalStore",
    "ShardingConfig",
    "GraphStore",
    # cost
    "CostModel",
    "DEFAULT_COST_MODEL",
    "WorkCounters",
    "ResourceThrottle",
    # rdf / sparql
    "IRI",
    "Literal",
    "Triple",
    "TripleSet",
    "Variable",
    "SelectQuery",
    "TriplePattern",
    "parse_query",
    "canonical_query_text",
    # serving layer
    "QueryService",
    "ServiceConfig",
    "ServedBatch",
    "ServiceMetrics",
    "AdaptiveConfig",
    "TuningDaemon",
    "WorkloadWindow",
    # persistence
    "DeltaLog",
    "SnapshotManifest",
    "SnapshotPolicy",
    "SnapshotWatcher",
    "WalTailer",
    "load_snapshot",
    "read_manifest",
    "restore_with_log",
    # endpoint (network-facing serving)
    "EndpointConfig",
    "EndpointPool",
    "SparqlEndpoint",
    "WorkerSupervisor",
    "sparql_request",
    # resilience (deadlines, breakers, supervision, fault injection)
    "BreakerPolicy",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "FleetMonitor",
    "KillSpec",
    "MonitorPolicy",
    "deadline_scope",
    # workloads
    "Workload",
    "generate_yago",
    "yago_workload",
    "generate_watdiv",
    "watdiv_workload",
    "generate_bio2rdf",
    "bio2rdf_workload",
]
