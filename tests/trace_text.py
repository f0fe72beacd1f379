"""What ``Trace.dump`` writes: a trace's identity, as text."""
import io


def dumped(trace) -> str:
    buffer = io.StringIO()
    trace.dump(buffer)
    return buffer.getvalue()
