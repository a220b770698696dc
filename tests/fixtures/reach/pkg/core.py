"""One entry point and every label the census can give."""


def entry():
    helper()
    dispatch(False)
    return Widget()


def helper():
    return 1


def dispatch(flag):
    if flag:
        return named_but_idle()
    return None


def named_but_idle():
    return 2


def orphan():
    return 3


class Widget:
    def __init__(self):
        self.size = helper()

    def __repr__(self):
        return "Widget()"

    def orphan_method(self):
        return self.size
