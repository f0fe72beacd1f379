"""The Amoeba-style service/process model (sections 1.2-1.4 of the paper).

Mobile server and client processes on a simulated processor pool, services
named by location-independent ports, and a pluggable distributed name server
matching clients to servers.
"""

from .client import ClientProcess, ClientStats
from .process import Process
from .server import RequestHandler, ServerProcess, echo_handler
from .system import DistributedSystem, RequestOutcome, SystemStats

__all__ = [
    "ClientProcess",
    "ClientStats",
    "DistributedSystem",
    "Process",
    "RequestHandler",
    "RequestOutcome",
    "ServerProcess",
    "SystemStats",
    "echo_handler",
]
